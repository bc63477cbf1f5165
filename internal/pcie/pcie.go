// Package pcie models the host<->FPGA data transfer layer of DHL: a
// scatter-gather packet DMA engine behind either the UIO-based poll-mode
// driver the paper builds (§IV-A1) or the Northwest Logic in-kernel driver
// it compares against.
//
// The model is analytic and calibrated against Figure 4 (see
// internal/perf): each direction (H2C = host-to-card, C2H = card-to-host)
// is a serial channel whose per-transfer occupancy embeds the
// per-transaction overhead that makes small transfers slow, plus a base
// propagation latency that makes up the round-trip time. PCIe is full
// duplex, so the two directions are independent channels.
package pcie

import (
	"errors"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// DriverMode selects the host driver model.
type DriverMode int

// Driver modes compared in Figure 4.
const (
	// UIOPoll is DHL's userspace-I/O poll-mode driver: registers mapped
	// into userspace, no syscalls, no interrupts (§IV-A1).
	UIOPoll DriverMode = iota + 1
	// InKernel is the reference in-kernel driver: read()/write() syscalls
	// and interrupt-driven completion, costing milliseconds per transfer.
	InKernel
)

// String names the driver mode.
func (m DriverMode) String() string {
	switch m {
	case UIOPoll:
		return "uio-poll"
	case InKernel:
		return "in-kernel"
	default:
		return fmt.Sprintf("DriverMode(%d)", int(m))
	}
}

// Direction labels a DMA channel.
type Direction int

// DMA directions.
const (
	// H2C moves data from host memory to the card.
	H2C Direction = iota + 1
	// C2H moves data from the card to host memory.
	C2H
)

// Errors returned by the engine.
var (
	// ErrTooLarge reports a transfer beyond the SG engine's 64 KB
	// descriptor chain limit (§VI.3: the engine is optimized for
	// networking packets; rte_mbuf bounds data at 64 KB).
	ErrTooLarge = errors.New("pcie: transfer exceeds 64KB scatter-gather limit")
	// ErrZeroSize reports an empty transfer.
	ErrZeroSize = errors.New("pcie: zero-size transfer")
	// ErrTransferFault reports an injected DMA fault: the descriptor post
	// failed and no data moved. Transient by definition — the transfer
	// layer retries with backoff before giving up.
	ErrTransferFault = errors.New("pcie: dma transfer fault")
)

// MaxTransfer is the largest supported single transfer.
const MaxTransfer = 64 * 1024

// Config parameterizes an Engine.
type Config struct {
	// Mode selects the driver model. Zero selects UIOPoll.
	Mode DriverMode
	// MaxBps is the asymptotic per-direction throughput in bits/s.
	// Zero selects the calibrated PCIe Gen3 x8 value.
	MaxBps float64
	// RemoteNUMA applies the cross-socket access penalty (§IV-A2).
	RemoteNUMA bool
	// Faults is the shared fault-injection plan; nil disables injection.
	// The DMA kinds (DMAH2CError/Corrupt/Stall and the C2H trio) are
	// drawn here, after size validation, once per posted transfer.
	Faults *faultinject.Plan
	// Telemetry, when set, records every accepted transfer's service
	// time (post to completion, queueing included) into the registry's
	// per-direction DMA histograms. Nil records nothing; the probe is
	// atomic and allocation-free either way.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = UIOPoll
	}
	if c.MaxBps == 0 {
		c.MaxBps = perf.DMAMaxBps
		if c.Mode == InKernel {
			c.MaxBps = perf.DMAKernelMaxBps
		}
	}
	return c
}

// Stats are lifetime transfer counters for one direction.
type Stats struct {
	Transfers uint64
	Bytes     uint64
	// BusyPs is accumulated channel occupancy, for utilization reporting.
	BusyPs eventsim.Time
	// Faults counts transfers failed by an injected DMA error (no data
	// moved; the post returned ErrTransferFault).
	Faults uint64
	// Corrupted counts transfers delivered with a garbled payload header.
	Corrupted uint64
	// Stalled counts transfers whose completion was delayed by an
	// injected stall.
	Stalled uint64
	// StallPs is the total injected stall time.
	StallPs eventsim.Time
	// LinkFlaps counts transfers failed by an injected transient link
	// retrain (ErrTransferFault; the bounded retry path absorbs them).
	LinkFlaps uint64
}

type channel struct {
	freeAt eventsim.Time
	stats  Stats
}

// Engine is the simulated SG packet DMA engine of one FPGA board.
type Engine struct {
	sim *eventsim.Sim
	cfg Config
	// overheadBytes is the per-transfer overhead that shapes the
	// throughput-vs-size curve, baseRTTPs the zero-byte round trip in
	// picoseconds: the calibrated values of cfg.Mode.
	overheadBytes float64
	baseRTTPs     float64
	h2c           channel
	c2h           channel
}

// NewEngine creates a DMA engine on sim with cfg.
func NewEngine(sim *eventsim.Sim, cfg Config) *Engine {
	e := &Engine{sim: sim, cfg: cfg.withDefaults(),
		overheadBytes: perf.DMAOverheadBytes, baseRTTPs: perf.DMABaseRTTPs}
	if e.cfg.Mode == InKernel {
		e.overheadBytes, e.baseRTTPs = perf.DMAKernelOverheadBytes, perf.DMAKernelBaseRTTPs
	}
	return e
}

// Mode reports the driver model in use.
func (e *Engine) Mode() DriverMode { return e.cfg.Mode }

// occupancy is the channel serialization time of one transfer: the
// effective wire time of size+overhead bytes. Steady-state throughput then
// equals SustainedBps by construction.
func (e *Engine) occupancy(size int) eventsim.Time {
	return eventsim.Time((float64(size) + e.overheadBytes) * 8 / e.cfg.MaxBps * 1e12)
}

// oneWayLatency is the extra pipeline latency a transfer sees beyond its
// serialization (half the base RTT, plus half the NUMA penalty if remote).
func (e *Engine) oneWayLatency() eventsim.Time {
	lat := eventsim.Time(e.baseRTTPs / 2)
	if e.cfg.RemoteNUMA {
		lat += eventsim.Time(perf.DMANUMAPenaltyPs / 2)
	}
	return lat
}

// tooLarge is the cold constructor for the detailed ErrTooLarge, keeping
// fmt out of the hot Transfer path. //go:noinline keeps the size
// argument's interface boxing out of Transfer's //dhl:hotpath body under
// escape analysis.
//
//go:noinline
func tooLarge(size int) error {
	return fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
}

// faultKinds maps a channel to its fault-kind triple (error, corrupt,
// stall) in the shared plan.
var (
	h2cFaultKinds = [3]faultinject.Kind{faultinject.DMAH2CError, faultinject.DMAH2CCorrupt, faultinject.DMAH2CStall}
	c2hFaultKinds = [3]faultinject.Kind{faultinject.DMAC2HError, faultinject.DMAC2HCorrupt, faultinject.DMAC2HStall}
)

// Transfer schedules a transfer of size bytes on direction dir and invokes
// done when the data has fully arrived at the other side. It returns the
// scheduled completion time and, when fault injection is armed, the
// injected Outcome: a Stalled bit means the completion time already
// includes the injected delay; a Corrupted bit means the caller — who
// owns the bytes the size stands for — must garble the payload header
// (faultinject.CorruptBatchHeader) before the data is consumed. An
// injected error fails the post with ErrTransferFault after validation
// but before any channel time is booked. Transfer is on the per-batch
// data path and does not allocate.
//
//dhl:hotpath
func (e *Engine) Transfer(dir Direction, size int, done func()) (eventsim.Time, faultinject.Outcome, error) {
	if size <= 0 {
		return 0, 0, ErrZeroSize
	}
	if size > MaxTransfer {
		return 0, 0, tooLarge(size)
	}
	ch := &e.h2c
	kinds := &h2cFaultKinds
	if dir == C2H {
		ch = &e.c2h
		kinds = &c2hFaultKinds
	}
	var outcome faultinject.Outcome
	var stall eventsim.Time
	if f := e.cfg.Faults; f != nil {
		if f.Fire(faultinject.PCIeLinkFlap) {
			// A link retrain hits whichever direction posted next; the
			// channel itself recovers instantly, so no occupancy is booked
			// and the bounded retry path absorbs the failure.
			ch.stats.LinkFlaps++
			return 0, 0, ErrTransferFault
		}
		if f.Fire(kinds[0]) {
			ch.stats.Faults++
			return 0, 0, ErrTransferFault
		}
		if f.Fire(kinds[1]) {
			ch.stats.Corrupted++
			outcome |= faultinject.Corrupted
		}
		if f.Fire(kinds[2]) {
			ch.stats.Stalled++
			outcome |= faultinject.Stalled
			stall = f.StallFor(kinds[2])
			ch.stats.StallPs += stall
		}
	}
	start := e.sim.Now()
	if ch.freeAt > start {
		start = ch.freeAt
	}
	occ := e.occupancy(size)
	ch.freeAt = start + occ
	ch.stats.Transfers++
	ch.stats.Bytes += uint64(size)
	ch.stats.BusyPs += occ
	// An injected stall extends this transfer's pipeline latency only —
	// it does not book channel occupancy, so one stalled descriptor does
	// not back-pressure the whole direction into a timeout cascade.
	complete := ch.freeAt + e.oneWayLatency() + stall
	if tel := e.cfg.Telemetry; tel != nil {
		h := &tel.DMAH2C
		if dir == C2H {
			h = &tel.DMAC2H
		}
		h.Observe(complete - e.sim.Now())
	}
	if done != nil {
		e.sim.At(complete, done)
	}
	return complete, outcome, nil
}

// Backlog reports how far in the future the direction's channel is booked,
// used by the runtime to apply back-pressure instead of queueing unbounded
// work on the DMA engine.
//
//dhl:hotpath
func (e *Engine) Backlog(dir Direction) eventsim.Time {
	ch := &e.h2c
	if dir == C2H {
		ch = &e.c2h
	}
	if ch.freeAt <= e.sim.Now() {
		return 0
	}
	return ch.freeAt - e.sim.Now()
}

// DirStats reports the counters of one direction.
//
//dhl:allow unreferenced core's fault-ledger test checks every counter against the plan
func (e *Engine) DirStats(dir Direction) Stats {
	if dir == C2H {
		return e.c2h.stats
	}
	return e.h2c.stats
}
