package netdev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

func TestGeneratorFlowValidation(t *testing.T) {
	sim, pool, p := newRig(t, 10e9, 1)
	base := GeneratorConfig{Port: p, Pool: pool, FrameSize: 64, OfferedWireBps: 1e9}

	cfg := base
	cfg.Flows = -1
	if _, err := NewGenerator(sim, cfg); !errors.Is(err, ErrBadFlows) {
		t.Errorf("negative Flows: %v, want ErrBadFlows", err)
	}
	cfg = base
	cfg.Flows = MaxFlows + 1
	if _, err := NewGenerator(sim, cfg); !errors.Is(err, ErrBadFlows) {
		t.Errorf("unrepresentable Flows: %v, want ErrBadFlows", err)
	}
	cfg = base
	cfg.ZipfSkew = 0.5
	if _, err := NewGenerator(sim, cfg); !errors.Is(err, ErrBadZipfSkew) {
		t.Errorf("skew in (0,1]: %v, want ErrBadZipfSkew", err)
	}
	cfg = base
	cfg.ChurnPerSec = -1
	if _, err := NewGenerator(sim, cfg); !errors.Is(err, ErrBadChurnCfg) {
		t.Errorf("negative churn: %v, want ErrBadChurnCfg", err)
	}
	cfg = base
	cfg.ChurnPerSec = 100
	cfg.Flows = maxChurnFlows * 2
	if _, err := NewGenerator(sim, cfg); !errors.Is(err, ErrBadChurnCfg) {
		t.Errorf("churn over huge flow set: %v, want ErrBadChurnCfg", err)
	}
}

// TestNewGeneratorRefusesMissingPortOrPool checks that a config without a
// port or without a pool is an error, not a panic now or at the first
// burst.
func TestNewGeneratorRefusesMissingPortOrPool(t *testing.T) {
	sim, pool, p := newRig(t, 10e9, 1)
	for name, cfg := range map[string]GeneratorConfig{
		"no port": {Pool: pool, FrameSize: 64, OfferedWireBps: 1e9},
		"no pool": {Port: p, FrameSize: 64, OfferedWireBps: 1e9},
	} {
		if g, err := NewGenerator(sim, cfg); !errors.Is(err, ErrNoPortOrPool) || g != nil {
			t.Errorf("%s: %v, %v; want nil, ErrNoPortOrPool", name, g, err)
		}
	}
}

// TestSecondGeneratorOnPortRefused checks that a port takes one generator:
// a second is refused, and a generator the config refused does not take
// the port.
func TestSecondGeneratorOnPortRefused(t *testing.T) {
	sim, pool, p := newRig(t, 10e9, 1)
	cfg := GeneratorConfig{Port: p, Pool: pool, FrameSize: 64, OfferedWireBps: 1e9}
	bad := cfg
	bad.FrameSize = 63
	if _, err := NewGenerator(sim, bad); !errors.Is(err, ErrBadFrameSize) {
		t.Fatalf("bad frame size: %v", err)
	}
	g, err := NewGenerator(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g2, err := NewGenerator(sim, cfg); !errors.Is(err, ErrPortTaken) || g2 != nil {
		t.Fatalf("second generator on port 0: %v, %v; want nil, ErrPortTaken", g2, err)
	}
	g.Start()
	sim.Run(10 * eventsim.Microsecond)
	g.Stop()
	sim.RunAll()
	if st := p.Stats(); g.Sent() == 0 || st.RxDelivered+st.RxDropped != g.Sent() {
		t.Fatalf("port took %d+%d frames of the %d its generator sent", st.RxDelivered, st.RxDropped, g.Sent())
	}
}

// TestFlowSrcInjective pins the satellite fix: the flow encoding must
// not fold ids into 16 bits. Distinct ids anywhere in [0, MaxFlows)
// produce distinct (SrcIP, SrcPort) pairs, including ids that the old
// encoding (low 16 bits of SrcIP only) collided.
func TestFlowSrcInjective(t *testing.T) {
	seen := map[uint64]uint64{}
	ids := []uint64{0, 1, 65535, 65536, 65537, 1 << 20, 1<<20 + 65536,
		1 << 24, 1<<24 + 1, 1 << 39, MaxFlows - 1}
	// The old encoding mapped id and id+65536 to the same tuple; add a
	// dense run straddling that boundary.
	for id := uint64(65500); id < 65600; id++ {
		ids = append(ids, id, id+65536)
	}
	for _, id := range ids {
		ip, port := FlowSrc(id)
		key := uint64(ip.Uint32())<<16 | uint64(port)
		if prev, dup := seen[key]; dup && prev != id {
			t.Fatalf("FlowSrc collision: ids %d and %d -> %v:%d", prev, id, ip, port)
		}
		seen[key] = id
		if ip[0] != 10 {
			t.Fatalf("FlowSrc(%d) left the 10/8 test net: %v", id, ip)
		}
	}
}

// TestGeneratorFlowsBeyond16Bits runs the generator with a flow space
// larger than the old 65536 cap and verifies emitted tuples actually
// exceed it (distinct beyond what 16 bits could carry).
func TestGeneratorFlowsBeyond16Bits(t *testing.T) {
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "netdev", Capacity: 8192})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, PortConfig{ID: 0, RateBps: 100e9, RxQueues: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: 64, OfferedWireBps: 100e9,
		Burst: 256, Flows: 1 << 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	tuples := map[uint64]bool{}
	drain := func() {
		buf := make([]*mbuf.Mbuf, 256)
		for q := 0; q < 2; q++ {
			for {
				n := p.RxBurst(q, buf)
				if n == 0 {
					break
				}
				for i := 0; i < n; i++ {
					f, perr := eth.Parse(buf[i].Data())
					if perr != nil {
						t.Fatalf("bad frame: %v", perr)
					}
					tuples[uint64(f.SrcIP().Uint32())<<16|uint64(f.SrcPort())] = true
					_ = pool.Free(buf[i])
				}
			}
		}
	}
	gen.Start()
	for sim.Now() < 100*eventsim.Microsecond {
		sim.Run(sim.Now() + eventsim.Microsecond)
		drain()
	}
	gen.Stop()
	sim.RunAll()
	drain()
	if gen.Sent() < 10000 {
		t.Fatalf("only %d frames emitted", gen.Sent())
	}
	// With 4M flows and >10k uniform samples, collisions are rare: the
	// distinct-tuple count must clear 90% of frames — far beyond any
	// 16-bit (65536) flow space at these sample sizes, and impossible
	// if ids were truncated.
	if got, sent := len(tuples), int(gen.Sent()); got < sent*9/10 {
		t.Errorf("%d distinct tuples from %d frames; flow space looks truncated", got, sent)
	}
	if pool.InUse() != 0 {
		t.Errorf("%d mbufs leaked", pool.InUse())
	}
}

func TestGeneratorZipfSkew(t *testing.T) {
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "netdev", Capacity: 8192})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, PortConfig{ID: 0, RateBps: 100e9, RxQueues: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: 64, OfferedWireBps: 100e9,
		Burst: 256, Flows: 1 << 16, ZipfSkew: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[eth.IPv4]int{}
	total := 0
	buf := make([]*mbuf.Mbuf, 256)
	drain := func() {
		for {
			n := p.RxBurst(0, buf)
			if n == 0 {
				return
			}
			for i := 0; i < n; i++ {
				f, _ := eth.Parse(buf[i].Data())
				counts[f.SrcIP()]++
				total++
				_ = pool.Free(buf[i])
			}
		}
	}
	gen.Start()
	for sim.Now() < 100*eventsim.Microsecond {
		sim.Run(sim.Now() + eventsim.Microsecond)
		drain()
	}
	gen.Stop()
	sim.RunAll()
	drain()
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Zipf s=1.5: the hottest flow should carry a large share; uniform
	// over 65536 flows would put ~total/65536 on each.
	if max < total/10 {
		t.Errorf("hottest flow carried %d of %d packets; distribution looks uniform", max, total)
	}
	if len(counts) < 10 {
		t.Errorf("only %d distinct flows seen; tail missing", len(counts))
	}
}

func TestGeneratorChurn(t *testing.T) {
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "netdev", Capacity: 8192})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, PortConfig{ID: 0, RateBps: 10e9, RxQueues: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: 64, OfferedWireBps: 1e9,
		Flows: 128, ChurnPerSec: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]*mbuf.Mbuf, 256)
	gen.Start()
	for sim.Now() < eventsim.Millisecond {
		sim.Run(sim.Now() + 10*eventsim.Microsecond)
		for {
			n := p.RxBurst(0, buf)
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				_ = pool.Free(buf[i])
			}
		}
	}
	gen.Stop()
	sim.RunAll()
	// 1M churn/s over 1ms of virtual time = ~1000 replacements.
	if gen.Churned() < 900 || gen.Churned() > 1100 {
		t.Errorf("churned = %d, want ~1000", gen.Churned())
	}
	// Live set stays at Flows, every live id unique. Ids are handed out
	// in order and each birth takes a dead flow's slot, so with 128 + churned
	// ids issued, the retired ones are exactly those not live: none twice.
	if gen.nextFlowID != 128+gen.Churned() {
		t.Errorf("%d flow ids issued, want %d", gen.nextFlowID, 128+gen.Churned())
	}
	live := map[uint64]bool{}
	for _, id := range gen.flowIDs {
		if live[id] {
			t.Fatalf("duplicate live flow %d", id)
		}
		if id >= gen.nextFlowID {
			t.Fatalf("live flow %d was never issued", id)
		}
		live[id] = true
	}
	if len(live) != 128 {
		t.Errorf("live set %d, want 128", len(live))
	}
}

// TestSetOfferedWireBps retargets a running generator and verifies the
// emitted frame rate actually follows: halving the offered load halves
// the deliveries per unit time.
func TestSetOfferedWireBps(t *testing.T) {
	sim, pool, p := newRig(t, 40e9, 1)
	g, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: 1024, OfferedWireBps: 8e9})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetOfferedWireBps(0); !errors.Is(err, ErrBadRateCfg) {
		t.Errorf("zero rate accepted: %v", err)
	}
	if err := g.SetOfferedWireBps(100e9); err != nil {
		t.Fatal(err)
	}
	if got := g.cfg.OfferedWireBps; got != 40e9 {
		t.Errorf("rate not capped at line rate: %g", got)
	}
	drain := func() {
		buf := make([]*mbuf.Mbuf, 64)
		for {
			n := p.RxBurst(0, buf)
			if n == 0 {
				return
			}
			for _, m := range buf[:n] {
				_ = pool.Free(m)
			}
		}
	}
	if err := g.SetOfferedWireBps(8e9); err != nil {
		t.Fatal(err)
	}
	g.Start()
	sim.Run(sim.Now() + eventsim.Millisecond)
	drain()
	atPeak := g.Sent()
	if err := g.SetOfferedWireBps(2e9); err != nil {
		t.Fatal(err)
	}
	sim.Run(sim.Now() + eventsim.Millisecond)
	drain()
	atTrough := g.Sent() - atPeak
	g.Stop()
	if atPeak == 0 || atTrough == 0 {
		t.Fatalf("no traffic: peak %d trough %d", atPeak, atTrough)
	}
	ratio := float64(atPeak) / float64(atTrough)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("peak/trough frame ratio %.2f, want ~4 after a 8->2 Gbps retarget", ratio)
	}
}

// TestStartTwiceKeepsOnePace starts a generator a second time while it
// runs, and stops and starts it before its pending burst fires: either
// way one chain of bursts runs, and the window sees the frames of a
// single Start.
func TestStartTwiceKeepsOnePace(t *testing.T) {
	const window = 100 * eventsim.Microsecond
	sent := func(restart func(g *Generator)) uint64 {
		sim, pool, p := newRig(t, 10e9, 1)
		g, err := NewGenerator(sim, GeneratorConfig{Port: p, Pool: pool, FrameSize: 64, OfferedWireBps: 1e9, Burst: 4})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]*mbuf.Mbuf, 64)
		g.Start()
		sim.Run(window / 3)
		restart(g)
		for sim.Now() < window {
			sim.Run(sim.Now() + eventsim.Microsecond)
			for n := p.RxBurst(0, buf); n > 0; n = p.RxBurst(0, buf) {
				for _, m := range buf[:n] {
					if err := pool.Free(m); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return g.Sent()
	}
	once := sent(func(*Generator) {})
	if once == 0 {
		t.Fatal("no frames sent")
	}
	if twice := sent((*Generator).Start); twice != once {
		t.Errorf("started twice: %d frames sent, %d after one Start", twice, once)
	}
	if again := sent(func(g *Generator) { g.Stop(); g.Start() }); again != once {
		t.Errorf("stopped and started before the pending burst: %d frames sent, %d after one Start", again, once)
	}
}

// fullBuild is the frame the generator delivers as ordinal ord of flow,
// constructed the way it once was at burst time: the whole template
// through eth.Build, then the flow's source address and port, the header
// checksum computed over the finished header, and the payload.
func fullBuild(t testing.TB, frameSize int, proto uint8, flow, ord uint64, fill PayloadFn) []byte {
	t.Helper()
	l4Len := eth.UDPLen
	if proto == eth.ProtoTCP {
		l4Len = eth.TCPLen
	}
	raw := make([]byte, frameSize)
	if _, err := eth.Build(raw, eth.BuildConfig{
		SrcMAC:  eth.MAC{0x02, 0, 0, 0, 0, 1},
		DstMAC:  eth.MAC{0x02, 0, 0, 0, 0, 2},
		SrcIP:   eth.IPv4{10, 0, 0, 1},
		DstIP:   eth.IPv4{192, 168, 0, 1},
		SrcPort: 1024,
		DstPort: 80,
		Proto:   proto,
		Payload: make([]byte, frameSize-eth.EtherLen-eth.IPv4Len-l4Len),
	}); err != nil {
		t.Fatal(err)
	}
	frame, err := eth.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	ip, port := FlowSrc(flow)
	frame.SetSrcIP(ip)
	l4 := frame.L4()
	l4[0], l4[1] = byte(port>>8), byte(port)
	frame.SetIPChecksum(frame.ComputeIPChecksum())
	fill(ord, raw[eth.EtherLen+eth.IPv4Len+l4Len:])
	return raw
}

// ordinalPayload writes the ordinal big-endian into the first eight
// payload bytes (as many as fit) and a pattern of it after them.
func ordinalPayload(i uint64, payload []byte) {
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], i)
	n := copy(payload, be[:])
	for j := range payload[n:] {
		payload[n+j] = byte(i*31) + byte(j)
	}
}

// checkFullBuild runs a generator whose flows are exactly ids until every
// id has been delivered at least once, and holds every delivered frame to
// fullBuild of the flow and ordinal burst queued it with.
func checkFullBuild(t testing.TB, frameSize int, proto uint8, ids []uint64) {
	t.Helper()
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "netdev", Capacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, PortConfig{ID: 3, RateBps: 10e9, RxQueues: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: frameSize, OfferedWireBps: 10e9, Burst: 16,
		Flows: len(ids), Proto: proto, Payload: ordinalPayload,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Slot i of the live set holds ids[i], as churn would leave it.
	g.flowIDs = ids
	flowOf := map[uint64]uint64{}
	burstFn := g.burstFn
	g.burstFn = func() {
		burstFn()
		for _, f := range g.pend[g.head:] {
			flowOf[f.ord] = f.flow
		}
	}
	payloadOff := eth.EtherLen + eth.IPv4Len + eth.UDPLen
	if proto == eth.ProtoTCP {
		payloadOff = eth.EtherLen + eth.IPv4Len + eth.TCPLen
	}
	seen := map[uint64]bool{}
	buf := make([]*mbuf.Mbuf, 64)
	g.Start()
	for steps := 0; len(seen) < len(ids); steps++ {
		if steps == 1000 {
			t.Fatalf("%d of %d flows delivered after %d frames", len(seen), len(ids), g.Sent())
		}
		sim.Run(sim.Now() + eventsim.Microsecond)
		for q := 0; q < p.Queues(); q++ {
			n := p.RxBurst(q, buf)
			for _, m := range buf[:n] {
				ord := binary.BigEndian.Uint64(m.Data()[payloadOff:])
				flow, ok := flowOf[ord]
				if !ok {
					t.Fatalf("delivered frame %d was never queued", ord)
				}
				if want := fullBuild(t, frameSize, proto, flow, ord, ordinalPayload); !bytes.Equal(m.Data(), want) {
					t.Fatalf("frame %d of flow %#x:\n got %x\nwant %x", ord, flow, m.Data(), want)
				}
				if m.Port != 3 || m.RxTimestamp != 0 {
					t.Fatalf("frame %d: port %d, rx timestamp %d", ord, m.Port, m.RxTimestamp)
				}
				seen[flow] = true
				if err := pool.Free(m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g.Stop()
	if d := p.Stats().RxDropped; d != 0 {
		t.Fatalf("%d frames dropped; every frame should have been compared", d)
	}
}

// TestGeneratorFrameMatchesFullBuild holds the frame written at delivery,
// with its header checksum from the template's precomputed sum, to the
// frame built whole: at the edges of the flow encoding (the address
// wrapping into the port at 2^24, the last representable flow) and over a
// seeded sweep, for UDP and TCP, at the smallest and largest frame.
func TestGeneratorFrameMatchesFullBuild(t *testing.T) {
	edges := []uint64{0, 1, 1<<24 - 1, 1 << 24, MaxFlows - 1}
	rng := rand.New(rand.NewSource(7))
	sweep := make([]uint64, 64)
	for i := range sweep {
		sweep[i] = uint64(rng.Int63n(MaxFlows))
	}
	for _, proto := range []uint8{eth.ProtoUDP, eth.ProtoTCP} {
		for _, size := range []int{64, 1500} {
			checkFullBuild(t, size, proto, edges)
			checkFullBuild(t, size, proto, sweep)
		}
	}
}

func FuzzGeneratorFrameMatchesFullBuild(f *testing.F) {
	for _, id := range []uint64{0, 1, 1<<24 - 1, 1 << 24, MaxFlows - 1} {
		f.Add(id, uint16(64), false)
	}
	f.Fuzz(func(t *testing.T, id uint64, size uint16, tcp bool) {
		proto := uint8(eth.ProtoUDP)
		if tcp {
			proto = eth.ProtoTCP
		}
		checkFullBuild(t, 64+int(size)%(1500-64+1), proto, []uint64{id % MaxFlows})
	})
}

// TestGeneratorDropsUnbuiltOnFullQueue: a frame that finds its RX queue
// full is dropped as a NIC without a free descriptor drops it, before any
// of it is written — Payload never sees it — and its mbuf goes back to
// the pool at the instant of the drop.
func TestGeneratorDropsUnbuiltOnFullQueue(t *testing.T) {
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "netdev", Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	// One descriptor, and nobody polls it.
	p, err := NewPort(sim, PortConfig{ID: 0, RateBps: 10e9, RxQueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	var written []uint64
	g, err := NewGenerator(sim, GeneratorConfig{
		Port: p, Pool: pool, FrameSize: 256, OfferedWireBps: 10e9, Burst: 8,
		Payload: func(i uint64, payload []byte) { written = append(written, i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	sim.Run(20 * eventsim.Microsecond)
	g.Stop()
	sim.RunAll()

	sent, st := g.Sent(), p.Stats()
	if sent < 2*8 || g.AllocFailures() != 0 {
		t.Fatalf("%d frames sent, %d allocation failures", sent, g.AllocFailures())
	}
	if st.RxDelivered != 1 || st.RxDropped != sent-1 {
		t.Fatalf("%d delivered, %d dropped of %d sent; want 1 and the rest", st.RxDelivered, st.RxDropped, sent)
	}
	if len(written) != 1 || written[0] != 0 {
		t.Fatalf("Payload ran for frames %v; want only frame 0, the one the queue took", written)
	}
	if got := pool.Available(); got != pool.Capacity()-1 {
		t.Fatalf("%d of %d mbufs free with one frame queued", got, pool.Capacity())
	}
	buf := make([]*mbuf.Mbuf, 4)
	if n := p.RxBurst(0, buf); n != 1 {
		t.Fatalf("drained %d frames, want 1", n)
	}
	if err := pool.Free(buf[0]); err != nil {
		t.Fatal(err)
	}
	if got := pool.Available(); got != pool.Capacity() {
		t.Fatalf("%d of %d mbufs free after the drain", got, pool.Capacity())
	}
}
