package harness

import (
	"testing"
)

// TestBoardFailover is the board-level failure-domain acceptance run: a
// whole-board loss without a replica must show a real outage bounded by
// the re-place PR time and recover on the surviving board; with a warm
// replica the loss must cost no measurable goodput at all. Either way,
// every packet is delivered or attributed, and nothing leaks.
func TestBoardFailover(t *testing.T) {
	// The default 60 ms paced window is the minimum that fits the ~29 ms
	// re-place PR with recovery visible inside the curve, so -short runs
	// it at full size too.
	cfg := FailoverConfig{Seed: 42}
	res, err := RunBoardFailover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineGoodBps <= 0 {
		t.Fatalf("baseline goodput %v", res.BaselineGoodBps)
	}
	t.Logf("seed=%d baseline=%.1f Mbps", res.Seed, res.BaselineGoodBps/1e6)

	for _, run := range []*BoardFailoverRun{&res.Baseline, &res.NoReplica, &res.Replica} {
		t.Logf("%-22s mttr=%.0fus min=%.1f Mbps recovered=%.1f Mbps ok=%d unproc=%d board=%d migrated-in=%d",
			run.Label, run.MTTRUs, run.MinRateBps/1e6, run.RecoveredGoodBps/1e6,
			run.DeliveredOK, run.DeliveredUnprocessed, run.FinalBoard, run.MigratedIn)
		if run.Leaked != 0 {
			t.Errorf("%s: %d mbufs leaked", run.Label, run.Leaked)
		}
		if run.SourceDrops != 0 {
			t.Errorf("%s: %d source drops (pool or IBQ exhausted)", run.Label, run.SourceDrops)
		}
		// Conservation ledger: everything the IBQ drained is either packed
		// or attributed, level by level.
		s := run.Stats
		if s.IBQDrained != s.PktsPacked+s.StagingDrops {
			t.Errorf("%s: ledger IBQDrained %d != packed %d + staging %d",
				run.Label, s.IBQDrained, s.PktsPacked, s.StagingDrops)
		}
		if s.PktsPacked != s.PktsDistributed+s.DropFault+s.DropCorrupt+s.DropMismatch+s.DropNoRoute {
			t.Errorf("%s: ledger PktsPacked %d unbalanced against distribution + drops", run.Label, s.PktsPacked)
		}
		// Every run ends the window recovered and serving.
		if run.RecoveredGoodBps < 0.9*res.BaselineGoodBps {
			t.Errorf("%s: recovered goodput %.1f Mbps < 90%% of baseline %.1f Mbps",
				run.Label, run.RecoveredGoodBps/1e6, res.BaselineGoodBps/1e6)
		}
	}

	// Baseline: flat curve, board 0 serves throughout, no board loss.
	if res.Baseline.MTTRUs != 0 {
		t.Errorf("baseline degraded: MTTR %vus", res.Baseline.MTTRUs)
	}
	if res.Baseline.FinalBoard != 0 || res.Baseline.BoardLosses != 0 || res.Baseline.MigratedIn != 0 {
		t.Errorf("baseline fleet moved: board=%d losses=%d migrated-in=%d",
			res.Baseline.FinalBoard, res.Baseline.BoardLosses, res.Baseline.MigratedIn)
	}

	// No replica: the board loss must cause a real outage, recovered by a
	// live migration onto board 1 — MTTR dominated by the ~29 ms ICAP
	// load of the 5.6 MB ipsec bitstream.
	nr := &res.NoReplica
	if nr.BoardLosses != 1 {
		t.Errorf("no-replica: board losses = %d, want 1", nr.BoardLosses)
	}
	if nr.FinalBoard != 1 || nr.MigratedIn != 1 {
		t.Errorf("no-replica: final board %d migrated-in %d, want 1/1", nr.FinalBoard, nr.MigratedIn)
	}
	if nr.MTTRUs <= 0 {
		t.Errorf("no-replica: MTTR %vus, want a positive measurable outage", nr.MTTRUs)
	}
	if nr.MTTRUs < 5_000 || nr.MTTRUs > 45_000 {
		t.Errorf("no-replica: MTTR %.0fus outside the expected re-place PR window", nr.MTTRUs)
	}

	// Replica: the promotion is a routing cutover; no measurable outage.
	rp := &res.Replica
	if rp.BoardLosses != 1 {
		t.Errorf("replica: board losses = %d, want 1", rp.BoardLosses)
	}
	if rp.FinalBoard != 1 || rp.MigratedIn != 1 {
		t.Errorf("replica: final board %d migrated-in %d, want 1/1", rp.FinalBoard, rp.MigratedIn)
	}
	if rp.MTTRUs != 0 {
		t.Errorf("replica: degraded below 50%% of baseline (MTTR %.0fus), want no outage", rp.MTTRUs)
	}
	if rp.MinRateBps < 0.5*res.BaselineGoodBps {
		t.Errorf("replica: goodput floor %.1f Mbps below half of baseline %.1f Mbps",
			rp.MinRateBps/1e6, res.BaselineGoodBps/1e6)
	}
	if rp.DeliveredUnprocessed != 0 {
		t.Errorf("replica: %d unprocessed deliveries, promotion should mask the loss entirely",
			rp.DeliveredUnprocessed)
	}
}
