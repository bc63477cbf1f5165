package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
)

// The board-failover experiment measures the blast radius of losing a
// whole FPGA board — the failure domain above a single region's SEU. A
// two-board fleet serves the ipsec-crypto accelerator; a BoardOffline
// fault (power loss / fatal link-down) kills the primary's board about a
// sixth of the way through the paced run. Three runs share one schedule:
//
//   - baseline: no fault, the fleet's fault-free goodput reference;
//   - board-loss/no-replica: the data path discovers the dead board on
//     the next flush and the placement layer live-migrates the module to
//     the surviving board — a fresh PR load over ICAP (~29 ms for the
//     5.6 MB ipsec bitstream) plus configuration replay. The goodput
//     curve's dip width is the MTTR;
//   - board-loss/replica: a warm replica was load-sharing on the second
//     board; promotion is a routing-table cutover, no ICAP write, and
//     goodput shows no measurable outage.
//
// Every packet remains accounted for across the failure: delivered, or
// attributed in the drop ledger; the run fails on any mbuf leak.

// BoardFailoverRun is one paced run's outcome: the common failover
// measurements plus the fleet-level placement facts.
type BoardFailoverRun struct {
	FailoverRun

	// FinalBoard is the board serving the accelerator when the run ends.
	FinalBoard int
	// MigratedIn counts cutovers into the surviving board (replica
	// promotion or live migration).
	MigratedIn uint64
	// BoardLosses counts injected whole-board failures observed by the
	// dead board's fault counters.
	BoardLosses uint64
}

// BoardFailoverResult aggregates the three runs.
type BoardFailoverResult struct {
	Seed uint64
	// BaselineGoodBps is the fleet's fault-free mean goodput over the
	// interior buckets, the reference for the MTTR thresholds.
	BaselineGoodBps float64

	Baseline  BoardFailoverRun
	NoReplica BoardFailoverRun
	Replica   BoardFailoverRun
}

// boardFailoverMode selects the run variant.
type boardFailoverMode int

const (
	bfBaseline boardFailoverMode = iota
	bfNoReplica
	bfReplica
)

// RunBoardFailover runs the board-level failure experiment: a fault-free
// baseline, a board loss recovered by live migration, and a board loss
// absorbed by a warm replica — all from one seed.
func RunBoardFailover(cfg FailoverConfig) (*BoardFailoverResult, error) {
	cfg = cfg.withDefaults()
	res := &BoardFailoverResult{Seed: cfg.Seed}

	base, err := runBoardFailoverOnce(cfg, bfBaseline, "fleet-baseline")
	if err != nil {
		return nil, fmt.Errorf("harness: board-failover baseline: %w", err)
	}
	res.Baseline = base
	res.BaselineGoodBps = interiorMean(base.Curve)

	if res.NoReplica, err = runBoardFailoverOnce(cfg, bfNoReplica, "board-loss/no-replica"); err != nil {
		return nil, fmt.Errorf("harness: board-failover no-replica: %w", err)
	}
	if res.Replica, err = runBoardFailoverOnce(cfg, bfReplica, "board-loss/replica"); err != nil {
		return nil, fmt.Errorf("harness: board-failover replica: %w", err)
	}

	analyzeFailoverRun(&res.Baseline.FailoverRun, res.BaselineGoodBps)
	analyzeFailoverRun(&res.NoReplica.FailoverRun, res.BaselineGoodBps)
	analyzeFailoverRun(&res.Replica.FailoverRun, res.BaselineGoodBps)
	return res, nil
}

// runBoardFailoverOnce paces failoverPackets ipsec frames through a two-board
// fleet, killing board 0 mid-run for the fault variants.
func runBoardFailoverOnce(cfg FailoverConfig, mode boardFailoverMode, label string) (BoardFailoverRun, error) {
	run := BoardFailoverRun{FailoverRun: FailoverRun{Label: label}, FinalBoard: -1}
	tb, err := newTestbed(0)
	if err != nil {
		return run, err
	}
	var plan *faultinject.Plan
	if mode != bfBaseline {
		// Kill board 0 on its faultAfter-th dispatch (with a replica board 0
		// takes every other batch, so the loss lands a third of the way in).
		if plan, err = faultinject.NewPlan(cfg.Seed,
			faultinject.Spec{Kind: faultinject.BoardOffline, EveryN: faultAfter(failoverPackets), Count: 1}); err != nil {
			return run, err
		}
	}
	rt, err := tb.newRuntime(core.Config{
		BoardsPerNode:   2,
		BatchBytes:      2048,
		FlushTimeout:    5 * eventsim.Microsecond,
		WatchdogTimeout: 250 * eventsim.Microsecond,
	})
	if err != nil {
		return run, err
	}
	// The plan arms board 0 alone: the kill target must be deterministic
	// even when a replica spreads dispatches over the fleet.
	board0, err := rt.Device(0)
	if err != nil {
		return run, err
	}
	board0.SetFaults(plan)
	nfID, acc, err := tb.openIPsecCrypto(rt, "fleet-gen", false)
	if err != nil {
		return run, err
	}
	if mode == bfReplica {
		if _, err := rt.Replicate(acc, -1); err != nil {
			return run, err
		}
		tb.settle(40 * eventsim.Millisecond) // warm the replica's PR + config replay
	}
	if err := tb.paceFailover(rt, nfID, acc, cfg.Buckets, &run.FailoverRun); err != nil {
		return run, err
	}
	if info, err := rt.AccInfo(acc); err == nil {
		run.FinalBoard = info.FPGA
	}
	in, _ := rt.Placement().Migrations(1)
	run.MigratedIn = in
	run.BoardLosses = board0.FaultCounters().BoardLosses
	return run, nil
}
