// Package netdev simulates the NIC substrate of the DHL testbed: Ethernet
// ports with line-rate serialization (the Intel XL710 40G and X520 10G
// ports of Table III), multi-queue RX with RSS, and a deterministic traffic
// generator/sink standing in for DPDK-Pktgen.
package netdev

import (
	"errors"
	"math"
	"strconv"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/ring"
	"github.com/opencloudnext/dhl-go/internal/stats"
)

// Errors returned by port configuration.
var (
	ErrBadQueues = errors.New("netdev: queue count must be >= 1")
	ErrBadRate   = errors.New("netdev: line rate must be positive")
)

// PortConfig parameterizes a Port.
type PortConfig struct {
	// ID is the port number.
	ID int
	// RateBps is the line rate in bits/s (e.g. perf.NIC40GBps).
	RateBps float64
	// RxQueues is the number of RSS receive queues. Zero selects 1.
	RxQueues int
	// RxQueueDepth is the per-queue descriptor count. Zero selects 512.
	//
	//dhl:allow unreferenced the arrival fuzzer sweeps it against the eager reference
	RxQueueDepth int
}

// txBacklogCap bounds a port's TX serialization backlog; frames offered
// beyond it are dropped (TX descriptor exhaustion).
const txBacklogCap = 100 * eventsim.Microsecond

// PortStats are lifetime port counters.
type PortStats struct {
	RxDelivered uint64 // frames accepted into RX queues
	RxDropped   uint64 // frames dropped on full RX queues (imissed)
	RxPolled    uint64 // frames handed to RxBurst callers
	TxFrames    uint64
	TxBytes     uint64
	TxDropped   uint64
}

// Port is one simulated Ethernet port, fed by at most one Generator, as a
// testbed port is by one DPDK-Pktgen stream.
//
// Frames on the wire towards it stay with its generator until something
// reads what they change: RxBurst, Stats, the generator's next burst
// (before it allocates) and the Sim's catch-up at the end of every Run
// take every frame due before the step being run (Sim.Running), in the
// order the generator put them on the wire, with the room, drop and
// Payload rules an event per frame would have applied.
// Only the queues' reader and those reads see the queues, and between
// two reads nothing dequeues, so the frames land as they would have. A
// frame is never an event: an RxBurst that finds its queue empty from a
// poll body declares the next frame's due instant as the body's deadline
// (eventsim.Sim.WakeBy), and the reader looks again at its first poll at
// or after it, as a DPDK rx_burst loop would; a busy reader takes its
// frames when it looks again.
//
// A Port is an eventsim.Input: every burst of its generator that puts
// frames on the wire wakes it, so a reader's poll loop may watch it
// (eventsim.PollLoop.Watch). Between a burst onto the wire, which produces
// into the port, and the deadline an empty RxBurst declared, nothing can
// put a frame in a queue the reader has not been told of.
type Port struct {
	sim *eventsim.Sim
	cfg PortConfig

	rxQueues []rxQueue
	txFreeAt eventsim.Time
	stats    PortStats

	// gen feeds the port, and (headAt, headSeq) is the oldest of its
	// frames on the wire, headAt noFrame when there is none.
	gen     *Generator
	headAt  eventsim.Time
	headSeq uint64
	waker   eventsim.Waker // woken by every burst of gen (OnProduce)

	// Measurement window for throughput/latency series (set by the
	// harness after warm-up).
	measStart eventsim.Time
	measEnd   eventsim.Time
	measBytes uint64
	measWire  uint64
	measPkts  uint64
	latency   *stats.Series
}

// NewPort creates a port on sim.
func NewPort(sim *eventsim.Sim, cfg PortConfig) (*Port, error) {
	if cfg.RateBps <= 0 {
		return nil, ErrBadRate
	}
	if cfg.RxQueues == 0 {
		cfg.RxQueues = 1
	}
	if cfg.RxQueues < 1 {
		return nil, ErrBadQueues
	}
	if cfg.RxQueueDepth == 0 {
		cfg.RxQueueDepth = 512
	}
	p := &Port{sim: sim, cfg: cfg, latency: stats.NewSeries(0), rxQueues: make([]rxQueue, cfg.RxQueues), headAt: noFrame}
	for q := range p.rxQueues {
		r, err := ring.New[*mbuf.Mbuf]("port"+strconv.Itoa(cfg.ID)+"-rxq"+strconv.Itoa(q),
			nextPow2(cfg.RxQueueDepth))
		if err != nil {
			return nil, err
		}
		p.rxQueues[q].r = r
	}
	return p, nil
}

// noFrame is Port.headAt with no frame on the wire: no deadline at all.
const noFrame = eventsim.Time(math.MaxInt64)

// rxQueue is one RSS queue: its ring, and the frames a take has accepted
// for it and not yet enqueued, oldest first.
type rxQueue struct {
	r  *ring.Ring[*mbuf.Mbuf]
	n  int
	in [32]*mbuf.Mbuf
}

func nextPow2(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// ID reports the port number.
func (p *Port) ID() int { return p.cfg.ID }

// RateBps reports the line rate.
func (p *Port) RateBps() float64 { return p.cfg.RateBps }

// Queues reports the RX queue count.
func (p *Port) Queues() int { return len(p.rxQueues) }

// wireTime is the serialization time of one frame including the 20-byte
// preamble+IFG and 4-byte FCS overhead.
func (p *Port) wireTime(frameLen int) eventsim.Time {
	return eventsim.Time(float64(frameLen+eth.WireOverhead) * 8 / p.cfg.RateBps * 1e12)
}

// deliverRx places an ingress frame on RSS queue q, dropping it (and
// freeing the mbuf) when the queue is full.
func (p *Port) deliverRx(q int, m *mbuf.Mbuf, pool *mbuf.Pool) {
	if p.rxQueues[q].r.Enqueue(m) {
		p.stats.RxDelivered++
		return
	}
	p.stats.RxDropped++
	// Dropping a foreign or already-freed mbuf is a generator bug; the
	// error is surfaced via pool accounting in tests.
	_ = pool.Free(m)
}

// RxBurst dequeues up to len(dst) frames from queue q, mirroring
// rte_eth_rx_burst. Finding none from a poll body, it declares the next
// frame's due instant as the body's deadline (eventsim.Sim.WakeBy).
//
//dhl:hotpath
func (p *Port) RxBurst(q int, dst []*mbuf.Mbuf) int {
	if q < 0 || q >= len(p.rxQueues) {
		return 0
	}
	p.take()
	n := p.rxQueues[q].r.DequeueBurst(dst)
	p.stats.RxPolled += uint64(n)
	if n == 0 && len(dst) > 0 {
		p.sim.WakeBy(p.headAt)
	}
	return n
}

// CatchUp takes every frame due by now off the wire (eventsim.Lazy).
func (p *Port) CatchUp() { p.take() }

// OnProduce hands the port w, which its generator wakes whenever it puts
// frames on the wire towards it, and returns the one it held before, which
// w is to wake in turn (eventsim.Input).
func (p *Port) OnProduce(w eventsim.Waker) (prev eventsim.Waker) {
	prev, p.waker = p.waker, w
	return prev
}

// take hands every frame due by the step being run to its RX queue, in
// the order they went on the wire: written and queued if the queue has
// room for it behind what is already there, else dropped, its mbuf back
// to the pool unbuilt. It is small enough to inline, for the reads that
// find nothing due yet.
func (p *Port) take() {
	if p.sim.Now() >= p.headAt {
		p.takeDue()
	}
}

// takeDue is take once the earliest frame on the wire is due by now. The
// frames a queue accepts enter it with one EnqueueBurst; a take of one
// frame, a waiting reader's usual case, delivers it directly.
//
//dhl:hotpath
func (p *Port) takeDue() {
	at, seq := p.sim.Running()
	if at == p.headAt && seq < p.headSeq {
		return
	}
	g := p.gen
	f := g.pop()
	if !g.dueBy(at, seq) {
		r := p.rxQueues[f.q].r
		if r.Len() < r.Capacity() {
			g.build(f)
		}
		p.deliverRx(f.q, f.m, g.cfg.Pool)
		p.setHead()
		return
	}
	for {
		p.accept(g, f)
		if !g.dueBy(at, seq) {
			break
		}
		f = g.pop()
	}
	for q := range p.rxQueues {
		p.flush(&p.rxQueues[q])
	}
	p.setHead()
}

// setHead records the generator's oldest frame on the wire, if any.
func (p *Port) setHead() {
	g := p.gen
	if g.head == len(g.pend) {
		p.headAt = noFrame
		return
	}
	f := &g.pend[g.head]
	p.headAt, p.headSeq = f.due, f.seq
}

// accept hands frame f of generator g to its queue as part of a take.
func (p *Port) accept(g *Generator, f *rxFrame) {
	rq := &p.rxQueues[f.q]
	if rq.r.Len()+rq.n == rq.r.Capacity() {
		p.stats.RxDropped++
		_ = g.cfg.Pool.Free(f.m)
		return
	}
	g.build(f)
	rq.in[rq.n] = f.m
	rq.n++
	if rq.n == len(rq.in) {
		p.flush(rq)
	}
}

// flush enqueues what a take accepted for rq; accept made room for it.
func (p *Port) flush(rq *rxQueue) {
	if rq.n == 0 {
		return
	}
	rq.r.EnqueueBurst(rq.in[:rq.n])
	p.stats.RxDelivered += uint64(rq.n)
	rq.n = 0
}

// TxBurst transmits a burst: each frame is serialized at line rate, its
// end-to-end latency (now minus the mbuf's RxTimestamp, the paper's §V-C
// measurement protocol) is recorded, and the mbuf is freed back to pool.
// Frames beyond the TX backlog cap are dropped. It returns the number of
// frames accepted.
func (p *Port) TxBurst(pkts []*mbuf.Mbuf, pool *mbuf.Pool) int {
	now := p.sim.Now()
	accepted := 0
	for _, m := range pkts {
		if m == nil {
			continue
		}
		start := now
		if p.txFreeAt > start {
			start = p.txFreeAt
		}
		if start-now > txBacklogCap {
			p.stats.TxDropped++
			_ = pool.Free(m)
			continue
		}
		wt := p.wireTime(m.Len())
		p.txFreeAt = start + wt
		p.stats.TxFrames++
		p.stats.TxBytes += uint64(m.Len())
		accepted++
		if now >= p.measStart && (p.measEnd == 0 || now < p.measEnd) {
			p.measBytes += uint64(m.Len())
			p.measWire += uint64(m.Len() + eth.WireOverhead)
			p.measPkts++
			if m.RxTimestamp > 0 {
				p.latency.Add(float64(int64(now) - m.RxTimestamp))
			}
		}
		_ = pool.Free(m)
	}
	return accepted
}

// SetMeasureWindow bounds the TX measurement window [start, end); end of 0
// means unbounded. Any previously accumulated measurement is discarded, so
// a port can be measured over several disjoint windows in one run.
func (p *Port) SetMeasureWindow(start, end eventsim.Time) {
	p.measStart = start
	p.measEnd = end
	p.measBytes = 0
	p.measWire = 0
	p.measPkts = 0
	p.latency = stats.NewSeries(0)
}

// Measured reports the TX-side measurement within the window: goodput and
// wire throughput in bits/s over the window, packet count, and the latency
// series (picoseconds).
func (p *Port) Measured(windowEnd eventsim.Time) (goodBps, wireBps float64, pkts uint64, lat *stats.Series) {
	end := p.measEnd
	if end == 0 || end > windowEnd {
		end = windowEnd
	}
	window := end - p.measStart
	if window <= 0 {
		return 0, 0, p.measPkts, p.latency
	}
	sec := window.Seconds()
	return float64(p.measBytes) * 8 / sec, float64(p.measWire) * 8 / sec, p.measPkts, p.latency
}

// Stats reports lifetime counters.
func (p *Port) Stats() PortStats {
	p.take()
	return p.stats
}
