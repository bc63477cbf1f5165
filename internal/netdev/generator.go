package netdev

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// Errors returned by the generator.
var (
	ErrBadFrameSize = errors.New("netdev: frame size must be in [64, 1500]")
	ErrBadRateCfg   = errors.New("netdev: offered rate must be positive")
	ErrBadFlows     = errors.New("netdev: flow count must be in [1, 2^40]")
	ErrBadZipfSkew  = errors.New("netdev: Zipf skew must be > 1 (or 0 for uniform)")
	ErrBadChurnCfg  = errors.New("netdev: bad churn config")
	ErrNoPortOrPool = errors.New("netdev: a generator needs a port and a pool")
	ErrPortTaken    = errors.New("netdev: port already has a generator")
)

// MaxFlows is the most distinct flows the 5-tuple encoding can
// represent: 24 bits of source address under 10/8 times 16 bits of
// source port.
const MaxFlows = 1 << 40

// maxChurnFlows bounds the live-flow slot array churn mode keeps
// (8 B/flow); 16M flows is 128 MB, past any realistic soak.
const maxChurnFlows = 1 << 24

// PayloadFn customizes packet payload contents; i is the packet ordinal,
// the count of frames the generator put on the wire before this one. It
// is called when the port takes the frame off the wire, which is when a
// reader (or a read of the port's counters) looks and not at the frame's
// due instant; frames are taken in delivery order, and a frame dropped at
// a full RX queue is never written. What it writes should be a function
// of i alone. The NIDS experiments use it to embed rule-matching content
// in a fraction of the traffic.
type PayloadFn func(i uint64, payload []byte)

// GeneratorConfig parameterizes a Generator.
type GeneratorConfig struct {
	// Port is the target port. It takes one generator.
	Port *Port
	// Pool supplies mbufs.
	Pool *mbuf.Pool
	// FrameSize is the Ethernet frame length in bytes (64..1500), the
	// x-axis of Figures 6 and 7.
	FrameSize int
	// OfferedWireBps is the offered load in wire bits/s (frame + 24 B
	// overhead per frame). It is capped at the port line rate.
	OfferedWireBps float64
	// Burst is how many frames are emitted per generator wake-up,
	// mirroring DPDK-Pktgen's TX burst. Zero selects 32.
	Burst int
	// Flows is the number of distinct 5-tuples in play (for RSS
	// spreading, SA/rule diversity, and flow-table load). Zero selects
	// 64; values above MaxFlows are rejected, not silently truncated.
	Flows int
	// ZipfSkew selects a Zipf (heavy-tail) flow-size distribution with
	// the given skew parameter s > 1: rank-1 flows carry most packets,
	// the tail almost none — real traffic, not the uniform cycling of
	// the paper's pktgen. Zero keeps the uniform distribution.
	ZipfSkew float64
	// ChurnPerSec retires a random live flow and births a fresh 5-tuple
	// in its place that many times per (virtual) second — the flow
	// birth/death dynamics stateful NF tables must survive. Zero
	// disables churn. Requires Flows <= 2^24 (the live-set slot array
	// is kept in memory). A churn step is not an event: the generator
	// applies the steps due when it next draws flows or is read, in the
	// order an event per step would have run them (see churnTo).
	ChurnPerSec float64
	// Payload optionally fills packet payloads, as each frame is taken
	// off the wire (see PayloadFn).
	Payload PayloadFn
	// Proto selects eth.ProtoUDP (default) or eth.ProtoTCP.
	//
	//dhl:allow unreferenced the frame-build equivalence test and fuzzer cover eth.Build's TCP branch with it
	Proto uint8
}

// Generator emits synthetic traffic onto a port's RX queues at a paced
// wire rate. It is the DPDK-Pktgen stand-in (§V-A).
type Generator struct {
	sim  *eventsim.Sim
	cfg  GeneratorConfig
	rng  uint64
	sent uint64
	drop uint64
	stop bool
	// burstPending is set while a burst event is on the heap: Start then
	// resumes the chain it heads instead of scheduling a second one.
	burstPending bool

	interBurst eventsim.Time
	template   []byte
	// ipSum is the one's-complement sum of the template's IPv4 header
	// words without the checksum and the source address, which build
	// adds per frame; payloadOff is where the payload starts.
	ipSum      uint32
	payloadOff int

	// Frames on the wire and not yet taken by the port, oldest at
	// pend[head], each with the (due, seq) pair burst drew for it: the
	// place an event delivering it would have had. A frame there holds
	// its mbuf but not yet its bytes: the port writes them when it takes
	// the frame into an RX queue with room, and a frame the queue drops
	// goes back to the pool unbuilt, as a NIC without a free descriptor
	// never writes host memory. Due times never decrease along pend (a
	// burst's frames are due before the next burst, and one chain of
	// bursts runs at a time) and seqs increase, so the frames fall due in
	// pend order.
	pend    []rxFrame
	head    int
	burstFn func()

	// Flow mixing state. zipf is nil for uniform traffic; flowIDs is
	// nil without churn (slot i then holds flow id i implicitly).
	zipf       *rand.Zipf
	flowIDs    []uint64
	nextFlowID uint64
	interChurn eventsim.Time
	churned    uint64 // churn steps applied: each one birth and one death

	// The churn process keeps no event: churnAt is the instant of its next
	// step, noChurn when it is not running, and churnTo applies the steps
	// due. Where a step and a burst fall on one instant, the one armed
	// first goes first, as the seqs of their events would have had it:
	// armed counts the bursts and churn steps the generator has armed,
	// and burstOrd and churnOrd are the pending ones' places in it.
	churnAt  eventsim.Time
	churnOrd uint64
	burstOrd uint64
	armed    uint64
}

// noChurn is Generator.churnAt while no churn process runs.
const noChurn = eventsim.Time(math.MaxInt64)

// rxFrame is one generated frame on the wire towards RX queue q, due
// at due in the place seq gives it among events at that instant: the
// ord-th frame of the generator, of flow flow.
type rxFrame struct {
	q    int
	m    *mbuf.Mbuf
	due  eventsim.Time
	seq  uint64
	flow uint64
	ord  uint64
}

// dueBy reports whether the generator's oldest frame on the wire goes
// before the step (at, seq) as the heap orders events. No step runs at a
// frame's own pair: its seq was drawn for the frame alone.
func (g *Generator) dueBy(at eventsim.Time, seq uint64) bool {
	if g.head == len(g.pend) {
		return false
	}
	f := &g.pend[g.head]
	return f.due < at || f.due == at && f.seq < seq
}

// FlowSrc encodes a flow id injectively into the source (address,
// port) the generator emits: the low 24 bits select an address under
// 10/8 and the port folds in bits 24..39, so distinct ids under
// MaxFlows never collide and small flow sets still vary both fields.
func FlowSrc(id uint64) (eth.IPv4, uint16) {
	ip := eth.IPv4{10, byte(id >> 16), byte(id >> 8), byte(id)}
	port := uint16(id>>24) ^ uint16(id)
	return ip, port
}

// NewGenerator validates cfg and builds a generator, the only one of its
// port.
func NewGenerator(sim *eventsim.Sim, cfg GeneratorConfig) (*Generator, error) {
	if cfg.Port == nil {
		return nil, fmt.Errorf("%w: no port", ErrNoPortOrPool)
	}
	if cfg.Pool == nil {
		return nil, fmt.Errorf("%w: no pool", ErrNoPortOrPool)
	}
	if cfg.Port.gen != nil {
		return nil, fmt.Errorf("%w: port %d", ErrPortTaken, cfg.Port.ID())
	}
	if cfg.FrameSize < 64 || cfg.FrameSize > 1500 {
		return nil, fmt.Errorf("%w: %d", ErrBadFrameSize, cfg.FrameSize)
	}
	if cfg.OfferedWireBps <= 0 {
		return nil, ErrBadRateCfg
	}
	if cfg.Burst < 0 {
		return nil, fmt.Errorf("%w: negative burst %d", ErrBadRateCfg, cfg.Burst)
	}
	if cfg.Flows < 0 || cfg.Flows > MaxFlows {
		return nil, fmt.Errorf("%w: %d", ErrBadFlows, cfg.Flows)
	}
	if cfg.ZipfSkew != 0 && cfg.ZipfSkew <= 1 {
		return nil, fmt.Errorf("%w: %g", ErrBadZipfSkew, cfg.ZipfSkew)
	}
	if cfg.ChurnPerSec < 0 {
		return nil, fmt.Errorf("%w: negative rate %g", ErrBadChurnCfg, cfg.ChurnPerSec)
	}
	if cfg.Burst == 0 {
		cfg.Burst = 32
	}
	if cfg.Flows == 0 {
		cfg.Flows = 64
	}
	if cfg.ChurnPerSec > 0 && cfg.Flows > maxChurnFlows {
		return nil, fmt.Errorf("%w: churn needs Flows <= %d, got %d",
			ErrBadChurnCfg, maxChurnFlows, cfg.Flows)
	}
	if cfg.Proto == 0 {
		cfg.Proto = eth.ProtoUDP
	}
	if cfg.OfferedWireBps > cfg.Port.RateBps() {
		cfg.OfferedWireBps = cfg.Port.RateBps()
	}
	g := &Generator{sim: sim, cfg: cfg, rng: 0x9E3779B97F4A7C15, churnAt: noChurn}
	g.burstFn = g.burst
	if cfg.ZipfSkew > 1 {
		// Seeded for run-to-run determinism, like every other source of
		// randomness in the simulation.
		g.zipf = rand.NewZipf(rand.New(rand.NewSource(0x5EED)), cfg.ZipfSkew, 1, uint64(cfg.Flows-1))
		if g.zipf == nil {
			return nil, fmt.Errorf("%w: %g", ErrBadZipfSkew, cfg.ZipfSkew)
		}
	}
	if cfg.ChurnPerSec > 0 {
		g.flowIDs = make([]uint64, cfg.Flows)
		for i := range g.flowIDs {
			g.flowIDs[i] = uint64(i)
		}
		g.nextFlowID = uint64(cfg.Flows)
		g.interChurn = eventsim.Time(1e12 / cfg.ChurnPerSec)
		if g.interChurn <= 0 {
			g.interChurn = 1
		}
	}
	frameWire := float64(cfg.FrameSize+eth.WireOverhead) * 8
	g.interBurst = eventsim.Time(frameWire * float64(cfg.Burst) / cfg.OfferedWireBps * 1e12)
	if g.interBurst <= 0 {
		g.interBurst = 1
	}
	g.template = make([]byte, cfg.FrameSize)
	g.payloadOff = eth.EtherLen + eth.IPv4Len + eth.UDPLen
	if cfg.Proto == eth.ProtoTCP {
		g.payloadOff = eth.EtherLen + eth.IPv4Len + eth.TCPLen
	}
	payloadLen := cfg.FrameSize - g.payloadOff
	if _, err := eth.Build(g.template, eth.BuildConfig{
		SrcMAC:  eth.MAC{0x02, 0, 0, 0, 0, 1},
		DstMAC:  eth.MAC{0x02, 0, 0, 0, 0, 2},
		SrcIP:   eth.IPv4{10, 0, 0, 1},
		DstIP:   eth.IPv4{192, 168, 0, 1},
		SrcPort: 1024,
		DstPort: 80,
		Proto:   cfg.Proto,
		Payload: make([]byte, payloadLen),
	}); err != nil {
		return nil, fmt.Errorf("netdev: build template: %w", err)
	}
	for off := 0; off < eth.IPv4Len; off += 2 {
		if off != ipChecksumOff && off != ipSrcOff && off != ipSrcOff+2 {
			g.ipSum += uint32(g.template[eth.EtherLen+off])<<8 | uint32(g.template[eth.EtherLen+off+1])
		}
	}
	p := cfg.Port
	p.gen = g
	p.sim.AddLazy(p)
	return g, nil
}

// Offsets within the IPv4 header of the fields build writes per frame.
const (
	ipChecksumOff = 10
	ipSrcOff      = 12
)

// Start begins emitting bursts at the configured pace (and, with
// ChurnPerSec set, the flow birth/death process alongside, its first step
// one churn interval from now). On a generator that is running, or that
// was stopped and whose next burst or churn step has not come yet, it
// resumes that chain where it is rather than starting a second one. With
// churn, call it between two Run calls, where every step due by now has
// run.
func (g *Generator) Start() {
	g.churnTo(g.sim.Now(), math.MaxUint64)
	g.stop = false
	if !g.burstPending {
		g.burstPending = true
		g.burstOrd = g.arm()
		g.sim.After(0, g.burstFn)
	}
	if g.interChurn > 0 && g.churnAt == noChurn {
		g.churnAt, g.churnOrd = g.sim.Now()+g.interChurn, g.arm()
	}
}

// Stop halts emission after the current burst, and churn after the last
// step due by now. The burst that finds it stopped is due after every
// frame already on the wire, so a run to completion still takes them
// all. With churn, call it between two Run calls, where every step due
// by now has run.
func (g *Generator) Stop() {
	g.churnTo(g.sim.Now(), math.MaxUint64)
	g.stop = true
}

// SetOfferedWireBps retargets the offered load on a running generator:
// the next burst is paced at the new rate (capped at the port line
// rate, like the constructor). Diurnal-load harnesses use it to swing
// between peak and trough phases without tearing the flow state down.
func (g *Generator) SetOfferedWireBps(bps float64) error {
	if bps <= 0 {
		return ErrBadRateCfg
	}
	if bps > g.cfg.Port.RateBps() {
		bps = g.cfg.Port.RateBps()
	}
	g.cfg.OfferedWireBps = bps
	frameWire := float64(g.cfg.FrameSize+eth.WireOverhead) * 8
	g.interBurst = eventsim.Time(frameWire * float64(g.cfg.Burst) / bps * 1e12)
	if g.interBurst <= 0 {
		g.interBurst = 1
	}
	return nil
}

// Sent reports frames put on the wire towards the port (including ones
// the port dropped on full RX queues).
func (g *Generator) Sent() uint64 { return g.sent }

// AllocFailures reports frames skipped because the pool was exhausted.
func (g *Generator) AllocFailures() uint64 { return g.drop }

// Churned reports the churn steps applied, every step due by now among
// them: each retired one live flow and birthed a fresh one in its slot
// (the initial population is not counted). Read it between two Run calls,
// where every step due by now has run.
func (g *Generator) Churned() uint64 {
	g.churnTo(g.sim.Now(), math.MaxUint64)
	return g.churned
}

func (g *Generator) next() uint64 {
	// SplitMix64: deterministic, well-distributed flow variation.
	g.rng += 0x9E3779B97F4A7C15
	return mix64(g.rng)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// pickFlow draws the next packet's flow id: a uniform or Zipf-ranked
// slot, resolved through the churn live-set when one exists.
func (g *Generator) pickFlow() uint64 {
	var slot uint64
	if g.zipf != nil {
		slot = g.zipf.Uint64()
	} else {
		slot = g.next() % uint64(g.cfg.Flows)
	}
	if g.flowIDs != nil {
		return g.flowIDs[slot]
	}
	return slot
}

// arm returns the next place in the generator's own order of armed
// bursts and churn steps.
func (g *Generator) arm() uint64 {
	g.armed++
	return g.armed
}

// churnTo applies every churn step that goes before the generator's step
// armed ord-th at instant at: each retires one random live flow and births
// a fresh id in its slot, and arms the next one churn interval later. A
// step that finds the generator stopped ends the process instead, as its
// event would have. An event per step would have run them in this order
// among the bursts, and drawn from g.next in it.
func (g *Generator) churnTo(at eventsim.Time, ord uint64) {
	for g.churnAt < at || g.churnAt == at && g.churnOrd < ord {
		if g.stop {
			g.churnAt = noChurn
			return
		}
		slot := g.next() % uint64(len(g.flowIDs))
		g.flowIDs[slot] = g.nextFlowID
		g.nextFlowID++
		g.churned++
		g.churnAt, g.churnOrd = g.churnAt+g.interChurn, g.arm()
	}
}

func (g *Generator) burst() {
	if g.stop {
		g.burstPending = false
		return
	}
	now := g.sim.Now()
	g.churnTo(now, g.burstOrd)
	// Drops free their mbufs as they are taken: take them before the
	// pool is asked, so that it runs dry exactly where it would have.
	p := g.cfg.Port
	p.take()
	// Frames within a burst are emitted back-to-back at *line* rate (the
	// wire serializes them even when the average offered load is lower),
	// so each frame arrives at its own serialization boundary.
	frameWire := eventsim.Time(float64(g.cfg.FrameSize+eth.WireOverhead) * 8 / p.RateBps() * 1e12)
	sent := g.sent
	for i := 0; i < g.cfg.Burst; i++ {
		// A frame holds its mbuf from here until it is taken, so where
		// the pool runs dry does not depend on when its bytes are written.
		m, err := g.cfg.Pool.Alloc()
		if err != nil {
			g.drop++
			continue
		}
		flow := g.pickFlow()
		// RSS: queue by flow hash, like a NIC's Toeplitz over the tuple.
		q := int(mix64(flow) % uint64(p.Queues()))
		due := now + eventsim.Time(i)*frameWire
		if g.head > 0 && len(g.pend) == cap(g.pend) {
			g.pend = g.pend[:copy(g.pend, g.pend[g.head:])]
			g.head = 0
		}
		g.pend = append(g.pend, rxFrame{q: q, m: m, due: due, seq: g.sim.DrawSeq(), flow: flow, ord: g.sent})
		g.sent++
	}
	p.setHead()
	if g.sent != sent && p.waker != nil {
		p.waker.Wake()
	}
	g.burstOrd = g.arm()
	g.sim.After(g.interBurst, g.burstFn)
}

// pop takes the oldest frame off the wire. The slot stays valid until
// the next burst.
func (g *Generator) pop() *rxFrame {
	f := &g.pend[g.head]
	g.head++
	if g.head == len(g.pend) {
		g.pend, g.head = g.pend[:0], 0
	}
	return f
}

// build writes f's frame into its mbuf: the template with the flow's
// source address and port, the header checksum and the payload.
// NewGenerator made sure the template fits an empty mbuf.
func (g *Generator) build(f *rxFrame) {
	m := f.m
	_ = m.AppendBytes(g.template)
	d := m.Data()
	ip, port := FlowSrc(f.flow)
	src := d[eth.EtherLen+ipSrcOff : eth.EtherLen+ipSrcOff+4]
	copy(src, ip[:])
	d[eth.EtherLen+eth.IPv4Len] = byte(port >> 8)
	d[eth.EtherLen+eth.IPv4Len+1] = byte(port)
	sum := g.ipSum + (uint32(ip[0])<<8 | uint32(ip[1])) + (uint32(ip[2])<<8 | uint32(ip[3]))
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	binary.BigEndian.PutUint16(d[eth.EtherLen+ipChecksumOff:], ^uint16(sum))
	if g.cfg.Payload != nil {
		g.cfg.Payload(f.ord, d[g.payloadOff:])
	}
	m.Port = uint16(g.cfg.Port.ID())
	m.RxTimestamp = 0 // stamped by the I/O core at rx_burst (§V-C)
}
