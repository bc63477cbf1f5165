// Package netdev simulates the NIC substrate of the DHL testbed: Ethernet
// ports with line-rate serialization (the Intel XL710 40G and X520 10G
// ports of Table III), multi-queue RX with RSS, and a deterministic traffic
// generator/sink standing in for DPDK-Pktgen.
package netdev

import (
	"errors"
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
	// Node is the NUMA node of the slot the NIC sits in.
	Node int
	// RxQueues is the number of RSS receive queues. Zero selects 1.
	RxQueues int
	// RxQueueDepth is the per-queue descriptor count. Zero selects 512.
	RxQueueDepth int
	// TxBacklogCap bounds the TX serialization backlog; frames offered
	// beyond it are dropped (TX descriptor exhaustion). Zero selects 100us.
	TxBacklogCap eventsim.Time
}

// PortStats are lifetime port counters.
type PortStats struct {
	RxDelivered uint64 // frames accepted into RX queues
	RxDropped   uint64 // frames dropped on full RX queues (imissed)
	RxPolled    uint64 // frames handed to RxBurst callers
	TxFrames    uint64
	TxBytes     uint64
	TxDropped   uint64
}

// Port is one simulated Ethernet port.
type Port struct {
	sim *eventsim.Sim
	cfg PortConfig

	rxQueues []*ring.Ring[*mbuf.Mbuf]
	txFreeAt eventsim.Time
	stats    PortStats

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
	if cfg.TxBacklogCap == 0 {
		cfg.TxBacklogCap = 100 * eventsim.Microsecond
	}
	p := &Port{sim: sim, cfg: cfg, latency: stats.NewSeries(0)}
	for q := 0; q < cfg.RxQueues; q++ {
		r, err := ring.New[*mbuf.Mbuf]("port"+strconv.Itoa(cfg.ID)+"-rxq"+strconv.Itoa(q),
			nextPow2(cfg.RxQueueDepth), ring.SingleProducerConsumer)
		if err != nil {
			return nil, err
		}
		p.rxQueues = append(p.rxQueues, r)
	}
	return p, nil
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

// DeliverRx places an ingress frame on RSS queue q, dropping it (and
// freeing the mbuf) when the queue is full. The generator is responsible
// for pacing deliveries at line rate.
func (p *Port) DeliverRx(q int, m *mbuf.Mbuf, pool *mbuf.Pool) {
	if q < 0 || q >= len(p.rxQueues) {
		q = 0
	}
	if p.rxQueues[q].Enqueue(m) {
		p.stats.RxDelivered++
		return
	}
	p.stats.RxDropped++
	// Dropping a foreign or already-freed mbuf is a generator bug; the
	// error is surfaced via pool accounting in tests.
	_ = pool.Free(m)
}

// rxFull reports whether DeliverRx would drop a frame for queue q, one
// of [0, Queues()).
func (p *Port) rxFull(q int) bool {
	r := p.rxQueues[q]
	return r.Len() == r.Capacity()
}

// RxBurst dequeues up to len(dst) frames from queue q, mirroring
// rte_eth_rx_burst.
func (p *Port) RxBurst(q int, dst []*mbuf.Mbuf) int {
	if q < 0 || q >= len(p.rxQueues) {
		return 0
	}
	n := p.rxQueues[q].DequeueBurst(dst)
	p.stats.RxPolled += uint64(n)
	return n
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
		if start-now > p.cfg.TxBacklogCap {
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
func (p *Port) Stats() PortStats { return p.stats }
