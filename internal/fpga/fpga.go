// Package fpga models the DHL FPGA board: a Xilinx VC709-class device with
// a static region (DMA engine, Dispatcher, Config and Reconfig modules) and
// a set of partially-reconfigurable parts that host accelerator modules
// (paper §IV-C, Figure 2).
//
// The model is functional *and* temporal: accelerator modules really
// transform the bytes they are given (encryption, pattern matching), while
// service times come from the published per-module specifications
// (Table VI) and reconfiguration times from the ICAP bandwidth model
// (Table V). Resource accounting (LUTs/BRAM) enforces the packing limits
// the paper reports ("enough resource to place 5 ipsec-crypto or 2
// pattern-matching in an FPGA", §V-F).
package fpga

import (
	"errors"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// Errors returned by device operations.
var (
	ErrNoFreeRegion   = errors.New("fpga: no free reconfigurable part")
	ErrInsufficient   = errors.New("fpga: insufficient LUT/BRAM resources")
	ErrUnknownAcc     = errors.New("fpga: unknown accelerator (no module at acc slot)")
	ErrNotLoaded      = errors.New("fpga: module not loaded")
	ErrBadSpec        = errors.New("fpga: invalid module spec")
	ErrReconfiguring  = errors.New("fpga: region is reconfiguring")
	ErrDeviceShutdown = errors.New("fpga: device is shut down")
	// ErrModuleFault reports an injected module-logic fault: the batch
	// reached the region but produced no usable response.
	ErrModuleFault = errors.New("fpga: module fault")
	// ErrModuleHang is delivered to the withheld completions of a hung
	// region when the region is reset, reloaded or the device shuts down.
	ErrModuleHang = errors.New("fpga: module hang (batch flushed by region reset)")
	// ErrICAPWedged reports an injected configuration-port wedge: the PR
	// write never started, the region is untouched, and the caller should
	// place the module on another board.
	ErrICAPWedged = errors.New("fpga: ICAP configuration port wedged")
)

// InsufficientError is the structured form of an ErrInsufficient load
// rejection: it carries the requested versus available LUT/BRAM so a
// placement scheduler (or an operator reading the error) can see exactly
// why a board refused a module. errors.Is(err, ErrInsufficient) remains
// true for every rejection.
type InsufficientError struct {
	// Module is the spec name that was refused ("" for the static-region
	// check at device construction).
	Module string
	// NeedLUTs/NeedBRAM is the requested footprint.
	NeedLUTs int
	NeedBRAM int
	// HaveLUTs/HaveBRAM is what the device had available at refusal.
	HaveLUTs int
	HaveBRAM int
}

// Error renders the rejection with the full resource picture.
func (e *InsufficientError) Error() string {
	if e.Module == "" {
		return fmt.Sprintf("%v: static region needs %d LUT/%d BRAM, device has %d/%d",
			ErrInsufficient, e.NeedLUTs, e.NeedBRAM, e.HaveLUTs, e.HaveBRAM)
	}
	return fmt.Sprintf("%v: %s needs %d LUT/%d BRAM, have %d/%d",
		ErrInsufficient, e.Module, e.NeedLUTs, e.NeedBRAM, e.HaveLUTs, e.HaveBRAM)
}

// Unwrap keeps errors.Is(err, ErrInsufficient) working.
func (e *InsufficientError) Unwrap() error { return ErrInsufficient }

// Module is the functional behaviour of an accelerator module. The
// Dispatcher hands each module the encoded request batch for its
// reconfigurable part and forwards the returned response batch to the DMA
// engine (paper §IV-B2).
type Module interface {
	// ProcessBatch consumes an encoded request batch (dhlproto format) and
	// appends the encoded response batch to dst, returning the extended
	// slice. dst may be nil; steady-state zero-allocation operation comes
	// from the caller passing a dst with sufficient spare capacity (the
	// runtime leases one from its batch arena). Implementations must not
	// retain dst or in past the call.
	ProcessBatch(dst, in []byte) ([]byte, error)
	// Configure applies an NF-supplied parameter blob
	// (DHL_acc_configure(), e.g. cipher keys or a pattern rule set).
	Configure(params []byte) error
}

// ModuleSpec describes an accelerator module in the accelerator module
// database: its resource footprint, service model and factory.
type ModuleSpec struct {
	// Name is the hardware function name NFs search for (hf_name).
	Name string
	// LUTs and BRAM are the module's resource footprint (Table VI).
	LUTs int
	BRAM int
	// ThroughputBps is the module's sustained processing rate (Table VI).
	ThroughputBps float64
	// DelayCycles is the module's pipeline depth in FPGA clock cycles
	// (Table VI "Delay (Cycles)").
	DelayCycles int
	// BitstreamBytes is the PR bitstream size (Table V).
	BitstreamBytes int
	// New constructs the functional engine for one loaded instance.
	New func() Module
}

func (s ModuleSpec) validate() error {
	if s.Name == "" || s.LUTs <= 0 || s.BRAM < 0 || s.ThroughputBps <= 0 ||
		s.DelayCycles < 0 || s.BitstreamBytes <= 0 || s.New == nil {
		return fmt.Errorf("%w: %+v", ErrBadSpec, s)
	}
	return nil
}

// RegionState is the lifecycle state of a reconfigurable part.
type RegionState int

// Region lifecycle states.
const (
	// RegionEmpty has no module loaded ("blank with data and configuration
	// interfaces defined").
	RegionEmpty RegionState = iota + 1
	// RegionReconfiguring is being written through ICAP.
	RegionReconfiguring
	// RegionLoaded hosts a running accelerator module.
	RegionLoaded
)

// String names the state.
func (s RegionState) String() string {
	switch s {
	case RegionEmpty:
		return "empty"
	case RegionReconfiguring:
		return "reconfiguring"
	case RegionLoaded:
		return "loaded"
	default:
		return fmt.Sprintf("RegionState(%d)", int(s))
	}
}

// Region is one reconfigurable part of the device.
type Region struct {
	idx    int
	state  RegionState
	spec   ModuleSpec
	module Module

	// freeAt is when the module's ingress pipeline can accept the next
	// batch (throughput serialization); the pipeline delay adds latency on
	// top of it.
	freeAt eventsim.Time

	// seu marks an injected single-event upset in the region's
	// configuration memory: every batch is garbled until the region is
	// re-programmed (Reload clears it; a soft ResetRegion does not, since
	// the corruption lives in the configuration bits).
	seu bool
	// hung parks the dispatch contexts of batches whose completion an
	// injected module hang withheld. They are flushed — completing
	// exactly once, with ErrModuleHang — by ResetRegion, Reload, Unload
	// or Shutdown, so the transfer layer's buffers are never stranded.
	hung []*dispatchCtx

	batches uint64
	bytes   uint64
	busyPs  eventsim.Time
}

// State reports the region's lifecycle state.
func (r *Region) State() RegionState { return r.state }

// Config parameterizes a Device.
type Config struct {
	// ID identifies the board (fpga_id).
	ID int
	// Node is the NUMA node whose PCIe root the board hangs off.
	Node int
	// Regions is the number of reconfigurable parts in the base design
	// floorplan. Zero selects 8.
	Regions int
	// Telemetry, when set, records every dispatched batch's service time
	// (queueing + serialization + pipeline delay) into the registry's
	// Dispatch histogram. Nil records nothing; the probe is atomic and
	// allocation-free either way.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Regions == 0 {
		c.Regions = 8
	}
	return c
}

// Device is one simulated FPGA board.
type Device struct {
	sim     *eventsim.Sim
	cfg     Config
	regions []Region

	usedLUTs int
	usedBRAM int

	dispatched uint64
	dropped    uint64
	reloads    uint64
	shutdown   bool
	fstats     FaultStats
	// faults is the fault-injection plan SetFaults armed; nil injects
	// nothing.
	faults *faultinject.Plan

	// ctxFree recycles dispatch contexts so Dispatch schedules module
	// completion without allocating a closure per batch.
	ctxFree []*dispatchCtx
}

// FaultStats are the device's lifetime injected-fault observations; the
// chaos soak reconciles them against the plan's injected counters.
type FaultStats struct {
	// ModuleErrors counts batches completed with ErrModuleFault.
	ModuleErrors uint64
	// GarbageBatches counts batches whose output framing was garbled by
	// an injected ModuleGarbage fault.
	GarbageBatches uint64
	// Hangs counts injected module hangs (batches parked on a region).
	Hangs uint64
	// SEUs counts injected configuration upsets.
	SEUs uint64
	// SEUGarbage counts batches garbled because they ran through a
	// region with an un-repaired SEU (>= SEUs; downstream damage, not
	// separate injections).
	SEUGarbage uint64
	// HungFlushed counts parked batches flushed with ErrModuleHang. Once
	// recovery has run, HungFlushed == Hangs.
	HungFlushed uint64
	// BoardLosses counts injected whole-board failures (at most 1: the
	// device stays down once BoardOffline strikes).
	BoardLosses uint64
	// ICAPWedges counts PR loads/reloads refused by an injected
	// configuration-port wedge.
	ICAPWedges uint64
}

// FaultCounters reports the device's injected-fault observations.
func (d *Device) FaultCounters() FaultStats { return d.fstats }

// Reloads reports how many PR reloads (recovery re-programs) completed.
func (d *Device) Reloads() uint64 { return d.reloads }

// dispatchCtx carries one in-flight batch from Dispatch to its completion
// event. runFn is bound once at construction; the context returns to the
// device freelist before the module runs, so a completion that dispatches
// further work reuses the hottest object first.
type dispatchCtx struct {
	d      *Device
	module Module
	batch  []byte
	dst    []byte
	done   func(out []byte, err error)
	runFn  func()

	// fault, when set, completes the batch with this error instead of
	// running the module; garbage runs the module but garbles its output
	// framing. Both are injected by Dispatch's fault draws.
	fault   error
	garbage bool
}

func (c *dispatchCtx) run() {
	d, module, batch, dst, done := c.d, c.module, c.batch, c.dst, c.done
	fault, garbage := c.fault, c.garbage
	c.module, c.batch, c.dst, c.done = nil, nil, nil, nil
	c.fault, c.garbage = nil, false
	d.ctxFree = append(d.ctxFree, c)
	if fault != nil {
		d.dropped++
		if done != nil {
			done(nil, fault)
		}
		return
	}
	out, perr := module.ProcessBatch(dst, batch)
	if perr != nil {
		d.dropped++
	} else if garbage {
		faultinject.CorruptBatchHeader(out)
	}
	if done != nil {
		done(out, perr)
	}
}

//dhl:hotpath
func (d *Device) getCtx() *dispatchCtx {
	if n := len(d.ctxFree); n > 0 {
		c := d.ctxFree[n-1]
		d.ctxFree[n-1] = nil
		d.ctxFree = d.ctxFree[:n-1]
		return c
	}
	return d.newCtx()
}

// newCtx is the cold freelist-miss constructor; //go:noinline keeps its
// allocation (and the bound run closure) out of the //dhl:hotpath
// getCtx/Dispatch bodies under escape analysis.
//
//go:noinline
func (d *Device) newCtx() *dispatchCtx {
	c := &dispatchCtx{d: d}
	c.runFn = c.run
	return c
}

// NewDevice creates a device with an empty floorplan.
func NewDevice(sim *eventsim.Sim, cfg Config) (*Device, error) {
	cfg = cfg.withDefaults()
	if cfg.Regions < 0 {
		return nil, fmt.Errorf("fpga: negative region count %d", cfg.Regions)
	}
	d := &Device{sim: sim, cfg: cfg, regions: make([]Region, cfg.Regions)}
	for i := range d.regions {
		d.regions[i] = Region{idx: i, state: RegionEmpty}
	}
	return d, nil
}

// SetFaults arms the device with a fault-injection plan (nil disarms
// it). The module kinds (ModuleError/Garbage/Hang, RegionSEU) are drawn
// in Dispatch, once per batch, mutually exclusive per draw site; ICAPWedge
// at every PR write, BoardOffline at every dispatch.
func (d *Device) SetFaults(p *faultinject.Plan) { d.faults = p }

// ID reports the board identifier.
func (d *Device) ID() int { return d.cfg.ID }

// Node reports the board's NUMA node.
func (d *Device) Node() int { return d.cfg.Node }

// Regions reports the floorplan size.
func (d *Device) Regions() int { return len(d.regions) }

// Region returns the region at idx for inspection.
func (d *Device) Region(idx int) (*Region, error) {
	if idx < 0 || idx >= len(d.regions) {
		return nil, fmt.Errorf("fpga: region %d out of range [0,%d)", idx, len(d.regions))
	}
	return &d.regions[idx], nil
}

// AvailableLUTs reports LUTs not consumed by the static region or loaded
// modules.
func (d *Device) AvailableLUTs() int {
	return perf.FPGATotalLUTs - perf.StaticRegionLUTs - d.usedLUTs
}

// AvailableBRAM reports BRAM blocks not consumed by the static region or
// loaded modules.
func (d *Device) AvailableBRAM() int {
	return perf.FPGATotalBRAM - perf.StaticRegionBRAM - d.usedBRAM
}

// UtilizationLUTs reports the fraction of device LUTs in use (static +
// modules), the Table VI percentage.
func (d *Device) UtilizationLUTs() float64 {
	return float64(perf.StaticRegionLUTs+d.usedLUTs) / perf.FPGATotalLUTs
}

// UtilizationBRAM reports the fraction of device BRAM in use.
func (d *Device) UtilizationBRAM() float64 {
	return float64(perf.StaticRegionBRAM+d.usedBRAM) / perf.FPGATotalBRAM
}

// PRTime reports the modeled partial-reconfiguration time for a bitstream
// of the given size (Table V: proportional to bitstream size).
func (d *Device) PRTime(bitstreamBytes int) eventsim.Time {
	return eventsim.Time(float64(bitstreamBytes) / perf.ICAPBytesPerSec * 1e12)
}

// Shutdown marks the device dead: every subsequent LoadPR, Reload,
// Configure, Unload or Dispatch returns ErrDeviceShutdown, in-flight
// ICAP writes are abandoned (their regions stay inert in
// RegionReconfiguring and their completion callbacks never run), and
// batches parked by injected hangs are flushed to their completion
// callbacks with ErrModuleHang so no transfer-layer buffer is stranded.
// Batches already scheduled on a module pipeline still complete — the
// data had left the host before the power went.
func (d *Device) Shutdown() {
	if d.shutdown {
		return
	}
	d.shutdown = true
	for i := range d.regions {
		d.flushHung(&d.regions[i])
	}
}

// IsShutdown reports whether Shutdown has been called.
func (d *Device) IsShutdown() bool { return d.shutdown }

// flushHung completes every parked batch of r exactly once with
// ErrModuleHang, recycling the contexts first so a completion that
// re-dispatches reuses the hottest object.
func (d *Device) flushHung(r *Region) {
	for len(r.hung) > 0 {
		n := len(r.hung)
		c := r.hung[n-1]
		r.hung[n-1] = nil
		r.hung = r.hung[:n-1]
		done := c.done
		c.module, c.batch, c.dst, c.done = nil, nil, nil, nil
		c.fault, c.garbage = nil, false
		d.ctxFree = append(d.ctxFree, c)
		d.fstats.HungFlushed++
		d.dropped++
		if done != nil {
			done(nil, ErrModuleHang)
		}
	}
}

// ResetRegion is the soft recovery path: it flushes batches parked by a
// hang (each completes with ErrModuleHang) and clears the ingress
// pipeline, without a PR cycle. The module instance — and any SEU in the
// configuration memory — survives; persistent corruption needs Reload.
// ResetRegion works even on a shut-down device so callers can always
// reclaim parked buffers.
func (d *Device) ResetRegion(regionIdx int) error {
	r, err := d.Region(regionIdx)
	if err != nil {
		return err
	}
	d.flushHung(r)
	if r.freeAt > d.sim.Now() {
		r.freeAt = d.sim.Now()
	}
	return nil
}

// Reload re-programs a loaded region with its own spec through ICAP — the
// recovery path for persistent module faults (the runtime quarantines the
// accelerator, reloads in the background, then replays its recorded
// configuration). Parked batches are flushed with ErrModuleHang, the
// fresh configuration write clears any SEU, and done (optionally nil)
// runs when the region is back up with a fresh module instance. Unlike
// LoadPR the region's resources stay reserved: it never becomes free for
// other specs mid-recovery.
func (d *Device) Reload(regionIdx int, done func()) error {
	if d.shutdown {
		return ErrDeviceShutdown
	}
	r, err := d.Region(regionIdx)
	if err != nil {
		return err
	}
	switch r.state {
	case RegionReconfiguring:
		return ErrReconfiguring
	case RegionEmpty:
		return ErrNotLoaded
	}
	if f := d.faults; f != nil && f.Fire(faultinject.ICAPWedge) {
		// The wedge strikes before the write starts: the region keeps its
		// (faulty) module and parked batches; the caller decides whether to
		// retry, reset, or migrate the accelerator to another board.
		d.fstats.ICAPWedges++
		return ErrICAPWedged
	}
	d.flushHung(r)
	spec := r.spec
	r.state = RegionReconfiguring
	r.module = nil
	d.sim.After(d.PRTime(spec.BitstreamBytes), func() {
		if d.shutdown {
			return // abandoned mid-ICAP; the region stays inert
		}
		r.module = spec.New()
		r.state = RegionLoaded
		r.seu = false
		r.freeAt = d.sim.Now()
		d.reloads++
		if done != nil {
			done()
		}
	})
	return nil
}

// LoadPR starts partial reconfiguration of a free region with spec and
// invokes done (optionally nil) with the region index when the ICAP write
// completes. Running modules in other regions are untouched — the paper's
// §V-E "no throughput degradation of the running NF" property holds by
// construction, since only the targeted Region's state changes.
func (d *Device) LoadPR(spec ModuleSpec, done func(regionIdx int)) (int, error) {
	if d.shutdown {
		return -1, ErrDeviceShutdown
	}
	if err := spec.validate(); err != nil {
		return -1, err
	}
	idx := -1
	for i := range d.regions {
		if d.regions[i].state == RegionEmpty {
			idx = i
			break
		}
	}
	if idx < 0 {
		return -1, ErrNoFreeRegion
	}
	if spec.LUTs > d.AvailableLUTs() || spec.BRAM > d.AvailableBRAM() {
		return -1, &InsufficientError{
			Module:   spec.Name,
			NeedLUTs: spec.LUTs, NeedBRAM: spec.BRAM,
			HaveLUTs: d.AvailableLUTs(), HaveBRAM: d.AvailableBRAM(),
		}
	}
	if f := d.faults; f != nil && f.Fire(faultinject.ICAPWedge) {
		d.fstats.ICAPWedges++
		return -1, ErrICAPWedged
	}
	r := &d.regions[idx]
	r.state = RegionReconfiguring
	r.spec = spec
	d.usedLUTs += spec.LUTs
	d.usedBRAM += spec.BRAM
	d.sim.After(d.PRTime(spec.BitstreamBytes), func() {
		if d.shutdown {
			return // abandoned mid-ICAP; the region stays inert
		}
		r.module = spec.New()
		r.state = RegionLoaded
		r.freeAt = d.sim.Now()
		if done != nil {
			done(idx)
		}
	})
	return idx, nil
}

// Unload frees a loaded region, returning its resources to the pool.
// Batches parked by a hang are flushed with ErrModuleHang first.
func (d *Device) Unload(regionIdx int) error {
	if d.shutdown {
		return ErrDeviceShutdown
	}
	r, err := d.Region(regionIdx)
	if err != nil {
		return err
	}
	switch r.state {
	case RegionReconfiguring:
		return ErrReconfiguring
	case RegionEmpty:
		return ErrNotLoaded
	}
	d.flushHung(r)
	d.usedLUTs -= r.spec.LUTs
	d.usedBRAM -= r.spec.BRAM
	r.state = RegionEmpty
	r.spec = ModuleSpec{}
	r.module = nil
	r.seu = false
	return nil
}

// Configure forwards an NF parameter blob to a loaded region's module via
// the static Config module (Figure 2's "Config" block).
func (d *Device) Configure(regionIdx int, params []byte) error {
	if d.shutdown {
		return ErrDeviceShutdown
	}
	r, err := d.Region(regionIdx)
	if err != nil {
		return err
	}
	if r.state != RegionLoaded {
		return ErrNotLoaded
	}
	return r.module.Configure(params)
}

// Dispatch models the static-region Dispatcher: it routes one encoded
// request batch to the region's module, applies the module's temporal
// model (throughput serialization + pipeline delay), and delivers the
// encoded response batch to done at the completion time. The module
// appends its response to dst (which may be nil); the runtime passes an
// arena-leased output buffer here so the steady state stays
// allocation-free.
//
// The returned time is when the response is ready at the FPGA's TX DMA
// channel; the caller (the runtime's transfer layer) then schedules the
// C2H transfer.
//
//dhl:hotpath
func (d *Device) Dispatch(regionIdx int, batch, dst []byte, done func(out []byte, err error)) (eventsim.Time, error) {
	if d.shutdown {
		return 0, ErrDeviceShutdown
	}
	if f := d.faults; f != nil && f.Fire(faultinject.BoardOffline) {
		// Whole-board failure: power loss or fatal link-down. The board
		// goes dark before this batch reaches the Dispatcher; Shutdown
		// flushes parked batches so nothing is stranded.
		d.fstats.BoardLosses++
		d.Shutdown()
		return 0, ErrDeviceShutdown
	}
	r, err := d.Region(regionIdx)
	if err != nil {
		return 0, err
	}
	if r.state != RegionLoaded {
		return 0, ErrUnknownAcc
	}
	start := d.sim.Now()
	if r.freeAt > start {
		start = r.freeAt
	}
	// Ingress serialization at the module's sustained rate.
	occ := eventsim.Time(float64(len(batch)) * 8 / r.spec.ThroughputBps * 1e12)
	r.freeAt = start + occ
	r.busyPs += occ
	r.batches++
	r.bytes += uint64(len(batch))
	d.dispatched++
	// Pipeline latency on top of serialization.
	delay := eventsim.Time(float64(r.spec.DelayCycles) / perf.FPGAClockHz * 1e12)
	complete := r.freeAt + delay
	if tel := d.cfg.Telemetry; tel != nil {
		tel.Dispatch.Observe(complete - d.sim.Now())
	}
	ctx := d.getCtx()
	ctx.module, ctx.batch, ctx.dst, ctx.done = r.module, batch, dst, done
	// Fault draws, mutually exclusive per batch so every injection has
	// one unambiguous observable: an un-repaired SEU garbles everything
	// it touches; otherwise at most one of hang/error/garbage strikes.
	if f := d.faults; f != nil {
		if r.seu {
			ctx.garbage = true
			d.fstats.SEUGarbage++
		} else if f.Fire(faultinject.RegionSEU) {
			r.seu = true
			d.fstats.SEUs++
			ctx.garbage = true
			d.fstats.SEUGarbage++
		} else if f.Fire(faultinject.ModuleHang) {
			d.fstats.Hangs++
			r.hung = append(r.hung, ctx)
			return complete, nil // completion withheld until region reset
		} else if f.Fire(faultinject.ModuleError) {
			d.fstats.ModuleErrors++
			ctx.fault = ErrModuleFault
		} else if f.Fire(faultinject.ModuleGarbage) {
			d.fstats.GarbageBatches++
			ctx.garbage = true
		}
	}
	d.sim.At(complete, ctx.runFn)
	return complete, nil
}

// RegionStats reports a region's lifetime counters.
//
//dhl:allow unreferenced core's migration and NUMA tests check which board ran each batch
func (d *Device) RegionStats(regionIdx int) (batches, bytes uint64, busy eventsim.Time, err error) {
	r, rerr := d.Region(regionIdx)
	if rerr != nil {
		return 0, 0, 0, rerr
	}
	return r.batches, r.bytes, r.busyPs, nil
}

// Floorplan renders a human-readable summary (cmd/dhl-inspect).
func (d *Device) Floorplan() string {
	s := fmt.Sprintf("FPGA %d (node %d): %d/%d LUTs, %d/%d BRAM in use (%.2f%% / %.2f%%)\n",
		d.cfg.ID, d.cfg.Node,
		perf.StaticRegionLUTs+d.usedLUTs, perf.FPGATotalLUTs,
		perf.StaticRegionBRAM+d.usedBRAM, perf.FPGATotalBRAM,
		100*d.UtilizationLUTs(), 100*d.UtilizationBRAM())
	staticLUTs, staticBRAM := float64(perf.StaticRegionLUTs), float64(perf.StaticRegionBRAM)
	s += fmt.Sprintf("  static region: %d LUTs (%.2f%%), %d BRAM (%.2f%%)\n",
		perf.StaticRegionLUTs, 100*staticLUTs/perf.FPGATotalLUTs,
		perf.StaticRegionBRAM, 100*staticBRAM/perf.FPGATotalBRAM)
	for i := range d.regions {
		r := &d.regions[i]
		if r.state == RegionEmpty {
			s += fmt.Sprintf("  part %d: empty\n", i)
			continue
		}
		s += fmt.Sprintf("  part %d: %-18s %s  %d LUTs, %d BRAM, %.2f Gbps, %d cycles\n",
			i, r.spec.Name, r.state, r.spec.LUTs, r.spec.BRAM,
			r.spec.ThroughputBps/1e9, r.spec.DelayCycles)
	}
	return s
}
