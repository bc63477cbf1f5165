package core

import (
	"errors"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/placement"
)

// This file is the actuation side of the fleet scheduler: replica
// promotion, live migration of an accelerator instance between boards,
// and the operator verbs (Replicate, Rebalance, DrainBoard, OfflineBoard)
// built on them. The placement.Scheduler decides; this file streams the
// bitstreams, replays configuration, and performs the atomic cutover.
// Everything runs on the simulation's event loop, so cutovers are
// race-free against the data path by construction.

// Errors returned by the migration surface.
var (
	// ErrMigrating reports a second migration requested while one is
	// already in flight for the same accelerator.
	ErrMigrating = errors.New("core: migration already in flight for accelerator")
)

// boardLost is the data path's escape hatch: flush calls it when it
// observes one of the accelerator's boards shut down. Every endpoint on
// the board leaves the rotation, and a lost primary is moved off it.
// //go:noinline keeps the cold body (closures, map traffic) out of flush's
// zero-allocation budget.
//
//go:noinline
func (r *Runtime) boardLost(e *hfEntry, board int) {
	e.route.DisableBoard(board)
	if board == e.route.Primary().FPGA {
		// Nowhere to go (no capacity, every board excluded) is not an error
		// on the data path: with its endpoints disabled the Packer degrades
		// to the software fallback (or unprocessed delivery) from this
		// flush on, until an operator frees capacity.
		_ = r.migrateOff(e)
	}
}

// migrateOff moves an accelerator off its current primary: a warm replica
// is promoted instantly; otherwise a live migration re-places it on a
// healthy board. A move already under way is left to finish. If neither
// is possible the accelerator stays where it is and the refusal is
// returned.
func (r *Runtime) migrateOff(e *hfEntry) error {
	if e.migrating || r.promoteReplica(e) {
		return nil
	}
	_, err := r.Migrate(e.accID, -1)
	return err
}

// promoteReplica cuts the accelerator over to a warm replica: the first
// ready, enabled endpoint on a live board becomes the primary. Instant —
// no ICAP write, no config replay (replicas are configured as they warm
// up). Reports whether a replica was found.
func (r *Runtime) promoteReplica(e *hfEntry) bool {
	for _, ep := range e.route.Endpoints() {
		if ep.Primary || !ep.Ready || ep.Disabled {
			continue
		}
		if r.boards[ep.FPGA].dev.IsShutdown() {
			continue
		}
		r.cutover(e, ep.FPGA, ep.Region)
		return true
	}
	return false
}

// cutover makes the configured instance at (board, region) the
// accelerator's primary, atomically (between simulation events): the end
// of a migration and of a replica promotion alike. The route's primary
// moves, the epoch advances so stragglers from the old placement cannot
// poison the fresh instance's health accounting, the old primary
// endpoint leaves the rotation, and the health FSM starts clean.
func (r *Runtime) cutover(e *hfEntry, board, region int) {
	p := e.route.Primary()
	oldBoard, oldRegion := p.FPGA, p.Region
	e.epoch++
	e.route.SetReady(board, region, true)
	e.route.MarkPrimary(board, region)
	e.route.Remove(oldBoard, oldRegion)
	if old := r.boards[oldBoard].dev; !old.IsShutdown() {
		// Reclaim the abandoned region when the board survives (drain,
		// quarantine-without-reload); a lost board has nothing to free.
		_ = old.Unload(oldRegion)
	}
	r.sched.NoteMigration(oldBoard, board)
	r.heal(e)
	e.reloading = false
	e.migrating = false
}

// settled reports whether the accelerator can be moved or evicted now,
// and the refusal when it cannot: another move is in flight, or a region
// is mid-bitstream — an initial PR or a recovery reload — on live
// hardware, where abandoning it gains nothing and racing it with a
// cutover or an unload is unsafe. On a board that has died the write's
// completion will never run, so its marker is stale and holds nobody.
func (r *Runtime) settled(e *hfEntry) error {
	if e.migrating {
		return fmt.Errorf("%w: acc_id %d", ErrMigrating, e.accID)
	}
	p := e.route.Primary()
	if (e.reloading || !p.Ready) && !r.boards[p.FPGA].dev.IsShutdown() {
		return fmt.Errorf("%w (acc_id %d)", ErrAccReloading, e.accID)
	}
	return nil
}

// warm starts a fresh instance of the accelerator on another board —
// target, or for -1 the placement scheduler's choice — and enters it into
// the rotation as pending: the PR write streams in the background, then
// every recorded configuration blob is replayed into the instance, then
// up runs. Returns the chosen board index.
func (r *Runtime) warm(e *hfEntry, target int, up func(board, region int)) (int, error) {
	if target < -1 || target >= len(r.boards) {
		return -1, fmt.Errorf("%w: %d of %d", placement.ErrUnknownBoard, target, len(r.boards))
	}
	if target < 0 {
		exclude := make([]int, 0, len(e.route.Endpoints()))
		for _, ep := range e.route.Endpoints() {
			exclude = append(exclude, ep.FPGA)
		}
		var err error
		if target, err = r.sched.Place(e.spec, e.node, exclude); err != nil {
			return -1, err
		}
	}
	dev := r.boards[target].dev
	region, err := dev.LoadPR(e.spec, func(ri int) {
		e.replay(dev, ri)
		up(target, ri)
	})
	if err != nil {
		return -1, err
	}
	e.route.Add(target, region, placement.DefaultWeight, false)
	return target, nil
}

// Migrate live-migrates the accelerator's primary instance to another
// board: a fresh instance is warmed there (PR write, then a replay of
// every recorded configuration blob), then the hardware-function-table
// row is cut over to it. Batches staged while no endpoint serves are held
// by the Packer exactly as during an initial load; batches already in
// flight against the old placement drain normally.
//
// target -1 asks the placement scheduler for a board (NUMA-preferring
// first-fit, excluding boards already hosting one of the acc's endpoints).
// Returns the chosen board index.
func (r *Runtime) Migrate(acc AccID, target int) (int, error) {
	e, err := r.acc(acc)
	if err != nil {
		return -1, err
	}
	if err := r.settled(e); err != nil {
		return -1, err
	}
	// A reload marker that got past settled died with its board.
	e.reloading = false
	board, err := r.warm(e, target, func(board, region int) { r.cutover(e, board, region) })
	e.migrating = err == nil
	return board, err
}

// Replicate loads a second (third, ...) instance of the accelerator on
// another board and adds it to the acc's weighted rotation at
// DefaultWeight. The replica warms in the background — PR write, then a
// replay of every recorded configuration blob — and joins the rotation
// only when ready, so goodput never dips. target is as for Migrate.
// Returns the chosen board index.
func (r *Runtime) Replicate(acc AccID, target int) (int, error) {
	e, err := r.acc(acc)
	if err != nil {
		return -1, err
	}
	return r.warm(e, target, func(board, region int) { e.route.SetReady(board, region, true) })
}

// Rebalance sweeps the hardware function table and moves every
// accelerator whose primary sits on a lost or draining board: promotion
// to a warm replica when one exists, live migration otherwise. Sweeps in
// acc_id order for determinism. Returns how many accelerators were moved
// (promotions count; in-flight migrations count when initiated) and the
// first migration refusal encountered, if any — partial progress is still
// progress.
func (r *Runtime) Rebalance() (int, error) {
	moved := 0
	var firstErr error
	for _, e := range r.accs {
		if e == nil || e.migrating || r.sched.BoardHealthOf(e.route.Primary().FPGA) == placement.BoardAlive {
			continue
		}
		if err := r.migrateOff(e); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		moved++
	}
	return moved, firstErr
}

// DrainBoard marks the board draining — it refuses new placements but
// keeps serving — and immediately rebalances its accelerators away.
// Returns how many were moved.
func (r *Runtime) DrainBoard(board int) (int, error) {
	if err := r.sched.SetDraining(board, true); err != nil {
		return 0, err
	}
	return r.Rebalance()
}

// UndrainBoard returns a draining board to service.
func (r *Runtime) UndrainBoard(board int) error {
	return r.sched.SetDraining(board, false)
}

// OfflineBoard hard-kills the board — the simulation's stand-in for
// yanking a card — then sweeps its endpoints out of every rotation and
// rebalances. In-flight batches against the board take the failure edges
// (DMA fault, dispatch against a shutdown device) and are attributed
// DropFault; nothing is stranded. Returns how many accelerators were
// moved off it.
func (r *Runtime) OfflineBoard(board int) (int, error) {
	dev, err := r.Device(board)
	if err != nil {
		return 0, err
	}
	dev.Shutdown()
	for _, e := range r.accs {
		if e != nil {
			e.route.DisableBoard(board)
		}
	}
	return r.Rebalance()
}
