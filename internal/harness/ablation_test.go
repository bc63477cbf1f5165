package harness

import "testing"

// TestDriverAblationOrdering asserts the Figure 4 system-level ordering:
// UIO-local ~ UIO-remote >> in-kernel.
func TestDriverAblationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	rows, err := runDriverAblation()
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]driverAblationResult{}
	for _, r := range rows {
		byLabel[r.Label] = r
		t.Logf("%-20s %6.2f Gbps  %8.2f us", r.Label, r.Throughput.InputBps/1e9, r.Latency.MeanUs)
	}
	local := byLabel["uio same-NUMA"]
	remote := byLabel["uio different-NUMA"]
	kernel := byLabel["in-kernel"]
	// NUMA placement barely matters (§IV-A2 finding).
	if rel := remote.Throughput.InputBps / local.Throughput.InputBps; rel < 0.97 {
		t.Errorf("remote NUMA cost too high: ratio %.3f", rel)
	}
	// The in-kernel driver collapses the pipeline.
	if kernel.Throughput.InputBps > 0.6*local.Throughput.InputBps {
		t.Errorf("in-kernel driver unrealistically fast: %.2f vs %.2f Gbps",
			kernel.Throughput.InputBps/1e9, local.Throughput.InputBps/1e9)
	}
	if kernel.Latency.MeanUs < 1000 {
		t.Errorf("in-kernel latency %.2fus, expected milliseconds", kernel.Latency.MeanUs)
	}
}

// TestVerticalScaling asserts the §VI.1 options raise the DMA ceiling.
func TestVerticalScaling(t *testing.T) {
	rows, err := runVerticalScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	base := rows[0].AggregateGbps
	for _, r := range rows {
		t.Logf("%-22s %.2f Gbps", r.Label, r.AggregateGbps)
	}
	if base < 41 || base > 44 {
		t.Errorf("x8 baseline %.2f Gbps", base)
	}
	if rows[1].AggregateGbps < 1.5*base {
		t.Errorf("x16 did not scale: %.2f vs %.2f", rows[1].AggregateGbps, base)
	}
	if rows[2].AggregateGbps < 1.9*base {
		t.Errorf("two boards did not scale: %.2f vs %.2f", rows[2].AggregateGbps, base)
	}
}

// TestPoolExhaustionDegradesGracefully starves the testbed of mbufs and
// verifies the run completes with drops instead of deadlocking or leaking.
func TestPoolExhaustionDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	cfg := short(SingleNFConfig{Kind: IPsecGateway, Mode: DHL, FrameSize: 64})
	cfg.PoolCapacity = 512 // far below the in-flight demand at 40G
	res, err := RunSingleNF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Pkts == 0 {
		t.Error("no packets at all under pool pressure")
	}
	full := short(SingleNFConfig{Kind: IPsecGateway, Mode: DHL, FrameSize: 64})
	ref, err := RunSingleNF(full)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("starved pool: %.2f Gbps (vs %.2f with a full pool)",
		res.Throughput.InputBps/1e9, ref.Throughput.InputBps/1e9)
}
