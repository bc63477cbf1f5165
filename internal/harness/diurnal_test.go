package harness

import "testing"

// TestDiurnalComparisonGates is the T5 acceptance gate: under a
// peak/trough diurnal sweep the autotuner must match the fixed-6KB
// baseline's peak goodput (>= 98%), cut trough p99 by >= 30%, and the
// pressure-aware ingress must lose nothing silently.
func TestDiurnalComparisonGates(t *testing.T) {
	if testing.Short() {
		t.Skip("diurnal sweep is a long virtual-time run")
	}
	cmp, err := runDiurnalComparison(DiurnalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("peak goodput fixed %.2f Gbps, tuned %.2f Gbps (ratio %.3f)",
		cmp.Fixed.Peak.Throughput.GoodBps/1e9, cmp.Tuned.Peak.Throughput.GoodBps/1e9, cmp.PeakGoodputRatio)
	t.Logf("trough p99 fixed %.1f us, tuned %.1f us (cut %.0f%%)",
		cmp.Fixed.Trough.Latency.P99Us, cmp.Tuned.Trough.Latency.P99Us, cmp.TroughP99Cut*100)
	t.Logf("tuner: %d windows, grow/shrink %d/%d",
		cmp.Tuned.Tuner.Windows, cmp.Tuned.Tuner.GrowDecisions, cmp.Tuned.Tuner.ShrinkDecisions)

	if cmp.Fixed.Peak.Throughput.Pkts == 0 || cmp.Tuned.Trough.Throughput.Pkts == 0 {
		t.Fatalf("empty measurement: fixed peak %d pkts, tuned trough %d pkts",
			cmp.Fixed.Peak.Throughput.Pkts, cmp.Tuned.Trough.Throughput.Pkts)
	}
	if cmp.PeakGoodputRatio < 0.98 {
		t.Errorf("autotuned peak goodput ratio %.3f, gate requires >= 0.98", cmp.PeakGoodputRatio)
	}
	if cmp.TroughP99Cut < 0.30 {
		t.Errorf("trough p99 cut %.2f, gate requires >= 0.30", cmp.TroughP99Cut)
	}
	if cmp.Fixed.SilentDrops != 0 || cmp.Tuned.SilentDrops != 0 {
		t.Errorf("silent IBQ drops: fixed %d, tuned %d, gate requires 0",
			cmp.Fixed.SilentDrops, cmp.Tuned.SilentDrops)
	}
	if !cmp.Tuned.Tuner.Enabled {
		t.Error("autotuned run finished with the controller disabled")
	}
	if cmp.Tuned.Tuner.ShrinkDecisions == 0 {
		t.Error("no shrink decisions at the trough; the controller never adapted")
	}
	if cmp.Fixed.Tuner.Enabled || cmp.Fixed.Tuner.Windows != 0 {
		t.Errorf("fixed baseline ran the tuner: %+v", cmp.Fixed.Tuner)
	}
}

// TestDiurnalTroughLatencyPhysics pins the fixed-baseline trough
// behavior the autotuner exists to fix: with one ~1 KB frame arriving
// every ~21 us, a 6 KB batch never fills and every packet pays most of
// the 20 us flush deadline.
func TestDiurnalTroughLatencyPhysics(t *testing.T) {
	if testing.Short() {
		t.Skip("diurnal sweep is a long virtual-time run")
	}
	res, err := RunDiurnal(DiurnalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trough.Latency.P50Us < 15 {
		t.Errorf("fixed trough p50 %.1f us — batches are filling at the trough, the sweep is not starving the stager",
			res.Trough.Latency.P50Us)
	}
	if res.Peak.Latency.P99Us > res.Trough.Latency.P99Us {
		t.Errorf("peak p99 %.1f us above trough p99 %.1f us — phases look inverted",
			res.Peak.Latency.P99Us, res.Trough.Latency.P99Us)
	}
}
