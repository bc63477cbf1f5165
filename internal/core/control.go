package core

import (
	"errors"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// This file is the runtime's live-management surface: the mutations the
// control plane applies to a *running* system. Everything here assumes
// the caller is on the simulation's event-loop goroutine (the control
// plane posts these through eventsim.Sim.Post), which is what makes each
// operation race-free against the data path without any locking: the
// transfer cores and these mutators interleave at event granularity,
// never mid-batch.

// Errors returned by the live-management surface.
var (
	ErrAccReloading = errors.New("core: accelerator recovery reload in flight; retry after it completes")
	ErrBatchTooBig  = errors.New("core: batch size exceeds the arena segment capacity fixed at Open")
)

// Nodes reports the runtime's NUMA node count.
func (r *Runtime) Nodes() int { return r.cfg.Nodes }

// BatchBytes reports the current default maximum DMA batch size.
func (r *Runtime) BatchBytes() int { return r.defaults.BatchBytes }

// FlushTimeout reports the default partial-batch flush deadline.
func (r *Runtime) FlushTimeout() eventsim.Time { return r.defaults.FlushTimeout }

// WatchdogTimeout reports the current per-batch watchdog deadline (zero
// when the watchdog is disarmed).
func (r *Runtime) WatchdogTimeout() eventsim.Time { return r.cfg.WatchdogTimeout }

// AccIDs lists the loaded accelerator instances in acc_id order.
func (r *Runtime) AccIDs() []AccID {
	ids := []AccID{}
	for _, e := range r.accs {
		if e != nil {
			ids = append(ids, e.accID)
		}
	}
	return ids
}

// AccInfo describes one hardware function table row for the management
// API: identity, placement and readiness. The JSON tags are the wire
// shape of sys.info and health.get.
type AccInfo struct {
	AccID  AccID  `json:"acc_id"`
	Name   string `json:"hf"`
	Node   int    `json:"node"`
	FPGA   int    `json:"fpga"`
	Region int    `json:"region"`
	Ready  bool   `json:"ready"`
}

// AccInfo reports one accelerator's table row.
func (r *Runtime) AccInfo(acc AccID) (AccInfo, error) {
	e, err := r.acc(acc)
	if err != nil {
		return AccInfo{}, err
	}
	p := e.route.Primary()
	return AccInfo{AccID: e.accID, Name: e.name, Node: e.node,
		FPGA: p.FPGA, Region: p.Region, Ready: p.Ready}, nil
}

// Evict removes a loaded accelerator module from the hardware function
// table and unloads its reconfigurable part, returning the region's
// LUT/BRAM resources to the board. The inverse of LoadPR, safe on a
// running system:
//
//   - packets staged for the accelerator are freed and attributed
//     DropNoRoute, so the conservation ledger keeps balancing;
//   - batches already posted to the DMA engine complete against the
//     now-empty region, take the dispatch-failure edge and are attributed
//     DropFault — buffers return, nothing is stranded;
//   - a region mid-reconfiguration on a live board (initial load or
//     recovery reload) cannot be unloaded; callers retry once it settles
//     (see settled).
//
// Traffic that keeps arriving for the evicted acc_id stages at the
// default knobs and is dropped DropNoRoute by the Packer, the same as any
// unknown acc_id.
func (r *Runtime) Evict(acc AccID) error {
	e, err := r.acc(acc)
	if err != nil {
		return err
	}
	if err := r.settled(e); err != nil {
		return err
	}
	// Unload every endpoint in the acc's rotation — primary and replicas —
	// whose board is still alive. A replica still warming (PR in flight)
	// finishes its write and sits idle; its region is reclaimed when the
	// board is next reloaded.
	for _, ep := range e.route.Endpoints() {
		dev := r.boards[ep.FPGA].dev
		if !ep.Ready || dev.IsShutdown() {
			continue
		}
		if err := dev.Unload(ep.Region); err != nil {
			return fmt.Errorf("core: evict acc_id %d: %w", acc, err)
		}
	}
	r.accs[acc] = nil
	// Drop staged (never-sent) packets on every node; they have no route
	// the moment the table row goes away.
	for _, tx := range r.nodeTx {
		if st := tx.state(acc); st != nil {
			tx.dropStaged(st)
			tx.retune(acc, st)
		}
	}
	if r.tel != nil {
		r.tel.UnregisterGauge("dhl_acc_health", accHealthLabels(acc, e.name))
	}
	return nil
}

// InstallFallback registers the module database's functional engine as
// the software fallback for a loaded hardware function on node: while
// the accelerator is quarantined its traffic runs through the fallback on
// the TX core (delivered StatusFallback) instead of passing through
// unprocessed. Every configuration blob the accelerator has accepted is
// replayed into the fallback here (and mirrored afterwards), so a
// faithful implementation — swcrypto for ipsec-crypto, acmatch for
// pattern-matching — is functionally equivalent, not approximate.
func (r *Runtime) InstallFallback(hfName string, node int) error {
	spec, ok := r.db[hfName]
	if !ok {
		return fmt.Errorf("dhl: no module %q in the database to use as a software fallback", hfName)
	}
	e := r.byName(hfName, node)
	if e == nil {
		return fmt.Errorf("%w: %q on node %d", ErrUnknownHF, hfName, node)
	}
	m := spec.New()
	if m == nil {
		return fmt.Errorf("core: module %q built a nil fallback", hfName)
	}
	for _, blob := range e.cfgBlobs {
		if err := m.Configure(blob); err != nil {
			return fmt.Errorf("core: fallback for %q rejected recorded config: %w", hfName, err)
		}
	}
	e.fallback = m
	return nil
}

// ClearFallback removes the registered software fallback for a hardware
// function. Traffic for the accelerator is unaffected while it is
// healthy; if it is (or becomes) quarantined, batches are delivered
// unprocessed from the next flush on.
func (r *Runtime) ClearFallback(hfName string, node int) error {
	e := r.byName(hfName, node)
	if e == nil {
		return fmt.Errorf("%w: %q on node %d", ErrUnknownHF, hfName, node)
	}
	e.fallback = nil
	return nil
}

// AccTuning is one member of the batching-knob family. The family is
// addressed by acc_id: 0 — an id LoadPR never assigns — names the
// defaults every accelerator inherits, held on the runtime, and a loaded
// accelerator's own values, held on its hardware function table row,
// layer on top, zero fields meaning "inherit the default". The autotuner
// sets per-accelerator values so a lightly loaded module can run small,
// quick batches while a saturated one keeps the paper's 6 KB target; the
// operator's `tune.batch` moves the default underneath them.
type AccTuning struct {
	// BatchBytes is the accelerator's staging target: a batch flushes
	// once it would pass it.
	BatchBytes int
	// FlushTimeout is how long the accelerator's partial batch may wait
	// before being forced out.
	FlushTimeout eventsim.Time
}

// SetBatchBytes retargets the default maximum batch size on a running
// system: SetAccBatchBytes for acc_id 0.
func (r *Runtime) SetBatchBytes(bytes int) error { return r.SetAccBatchBytes(0, bytes) }

// SetAccBatchBytes retargets a batch-size target on a running system: an
// accelerator's own, or for acc_id 0 the default every accelerator
// without one inherits. The target applies to every node's staging from
// the next packet on; a batch already staged past it flushes on its next
// arrival or deadline. Bounded below by MinBatchBytes and above by the
// batch arena's segment capacity (fixed at Open — segments are sized 2x
// the opening BatchBytes and are never reallocated, which is what keeps
// the hot path at zero allocations). Zero clears an accelerator's own
// target, returning it to the current default; the default itself cannot
// be cleared. An accelerator's target survives a move of the default.
func (r *Runtime) SetAccBatchBytes(acc AccID, bytes int) error {
	tune, err := r.AccTuningFor(acc)
	if err != nil {
		return err
	}
	if bytes != 0 || acc == 0 {
		if bytes < MinBatchBytes {
			return fmt.Errorf("%w: %d < min %d", ErrBadBatchConfig, bytes, MinBatchBytes)
		}
		for _, tx := range r.nodeTx {
			if tx != nil && bytes > tx.arena.segSize/2 {
				return fmt.Errorf("%w: %d > %d", ErrBatchTooBig, bytes, tx.arena.segSize/2)
			}
		}
	}
	tune.BatchBytes = bytes
	r.setTuning(acc, tune)
	return nil
}

// SetAccFlushTimeout retunes a partial-batch flush deadline on a running
// system: an accelerator's own, or for acc_id 0 the default. Zero clears
// an accelerator's own deadline (back to the current default; the default
// itself cannot be cleared); a batch already waiting is re-judged against
// the new deadline on the TX core's next poll.
func (r *Runtime) SetAccFlushTimeout(acc AccID, d eventsim.Time) error {
	tune, err := r.AccTuningFor(acc)
	if err != nil {
		return err
	}
	if d < 0 || (d == 0 && acc == 0) {
		return fmt.Errorf("%w: flush timeout %d (acc_id %d)", ErrBadBatchConfig, d, acc)
	}
	tune.FlushTimeout = d
	r.setTuning(acc, tune)
	return nil
}

// AccTuningFor reports one member of the knob family: an accelerator's
// own values (zero fields inherit the default), or for acc_id 0 the
// defaults themselves.
func (r *Runtime) AccTuningFor(acc AccID) (AccTuning, error) {
	if acc == 0 {
		return r.defaults, nil
	}
	e, err := r.acc(acc)
	if err != nil {
		return AccTuning{}, err
	}
	return e.tune, nil
}

// setTuning stores one member of the knob family, which AccTuningFor has
// vetted, and re-derives every staging area from it: a move of the
// default reaches every accelerator without a value of its own, and
// leaves the rest where they are.
func (r *Runtime) setTuning(acc AccID, tune AccTuning) {
	if acc == 0 {
		r.defaults = tune
	} else {
		r.accs[acc].tune = tune
	}
	for _, tx := range r.nodeTx {
		for _, id := range tx.order {
			tx.retune(id, tx.staging[id])
		}
	}
}

// SetBurst retunes one node's poll-core dequeue burst on a running
// system: how many IBQ packets the TX core claims (and DMA completions
// the RX core claims) per poll iteration. Burst is a per-node knob — it
// sizes the shared-IBQ dequeue, which serves every accelerator on the
// node — unlike batch size and flush timeout, which are per accelerator.
// Resizing reallocates the two scratch slices; that is the
// reconfiguration-boundary allocation the zero-alloc budget permits, and
// the hot path stays allocation-free afterwards.
func (r *Runtime) SetBurst(node, burst int) error {
	if node < 0 || node >= r.cfg.Nodes {
		return fmt.Errorf("core: node %d out of range [0,%d)", node, r.cfg.Nodes)
	}
	if burst < 1 || burst > 1024 {
		return fmt.Errorf("%w: burst %d outside [1,1024]", ErrBadBatchConfig, burst)
	}
	tx, rx := r.nodeTx[node], r.nodeRx[node]
	if len(tx.scratch) == burst {
		return nil
	}
	tx.scratch = make([]*mbuf.Mbuf, burst)
	rx.scratch = make([]*inflight, burst)
	return nil
}

// Burst reports one node's current poll-core dequeue burst.
func (r *Runtime) Burst(node int) int {
	if node < 0 || node >= r.cfg.Nodes {
		return defaultBurst
	}
	return len(r.nodeTx[node].scratch)
}

// SetWatchdogTimeout retunes (or arms) the per-batch watchdog on a
// running system. A positive d sets the soft completion deadline for
// batches committed from now on — already-watched batches keep their old
// deadline — and arms the detection/recovery machinery if the runtime
// started unarmed. Zero disarms the watchdog: the sweep timer stops and
// new batches are not watched; the health FSM keeps whatever state it
// had.
func (r *Runtime) SetWatchdogTimeout(d eventsim.Time) error {
	if d < 0 {
		return fmt.Errorf("%w: negative watchdog timeout %d", ErrBadBatchConfig, d)
	}
	r.cfg.WatchdogTimeout = d
	if d > 0 {
		r.armed = true
	}
	for node, tx := range r.nodeTx {
		r.nodeRx[node].setWatchdog(tx, d)
	}
	return nil
}

// setWatchdog applies the watchdog deadline to the node's engine pair, at
// construction and at every retune: batches committed from now on are
// watched against d (zero: not at all), and the sweep timer exists, and
// is armed, only while there is something to sweep.
func (x *rxEngine) setWatchdog(tx *txEngine, d eventsim.Time) {
	tx.watchdog, x.timeout = d, d
	if d <= 0 {
		if x.wdTimer != nil {
			x.wdTimer.Stop()
		}
		return
	}
	x.wdPeriod = max(d/2, eventsim.Microsecond)
	if x.wdTimer == nil {
		x.wdTimer = x.r.sim.NewTimer(x.watchdogFire)
	}
	if len(x.watch) > 0 && !x.wdTimer.Armed() {
		x.wdTimer.Reset(x.wdPeriod)
	}
}
