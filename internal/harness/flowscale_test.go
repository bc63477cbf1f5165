package harness

import (
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

// TestFlowScaleConservation is the quick ledger check: a modest flow
// population, no churn, and every generated frame accounted for.
func TestFlowScaleConservation(t *testing.T) {
	res, err := RunFlowScale(FlowScaleConfig{
		Flows:  10_000,
		Window: 4 * eventsim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if res.Throughput.GoodBps <= 0 {
		t.Fatalf("no goodput: %+v", res.Throughput)
	}
	// The blocklisted /15 covers part of the 10/8 flow space, so the
	// firewall must actually have denied traffic.
	if res.NFDropped == 0 {
		t.Error("deny rules matched no traffic; NFDropped = 0")
	}
	if len(res.Tables) == 0 || res.Tables[0].Entries == 0 {
		t.Fatalf("verdict cache never populated: %+v", res.Tables)
	}
	// Steady 10k-flow traffic without churn is the cache's best case:
	// after warmup nearly every packet is a hit.
	if res.HitRate < 0.9 {
		t.Errorf("hit rate %.3f below 0.9 for a steady flow set", res.HitRate)
	}
	if res.BytesPerFlow <= 0 {
		t.Errorf("bytes/flow not computed: %v", res.BytesPerFlow)
	}
}

// TestEventBudgetFlowScale pins what the CPU-only flow firewall pipeline
// costs the event heap: its I/O cores wait on the NIC by declaring the
// next frame's due instant, so what is left on the heap is the
// generator's bursts and the flow tables' ticks: 0.048 events per
// delivered packet, where a wake-up event per frame a reader waited for
// made it 1.59.
func TestEventBudgetFlowScale(t *testing.T) {
	res, err := RunFlowScale(FlowScaleConfig{Window: 4 * eventsim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	perPkt := float64(res.Sim.HeapEvents) / float64(res.Throughput.Pkts)
	t.Logf("%.4f heap events per delivered packet (%+v, %d packets)", perPkt, res.Sim, res.Throughput.Pkts)
	if res.Throughput.Pkts == 0 || perPkt >= 0.1 {
		t.Errorf("%.4f heap events per delivered packet, want < 0.1", perPkt)
	}
}

// TestFlowScaleConservationSeesDryPool starves the generator: a frame
// the pool cannot back never reaches GenSent, so the ledger balances
// anyway, and only the carried AllocFailures count shows the loss.
func TestFlowScaleConservationSeesDryPool(t *testing.T) {
	res, err := RunFlowScale(FlowScaleConfig{
		Flows:        1_000,
		Window:       2 * eventsim.Millisecond,
		PoolCapacity: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocFailures == 0 {
		t.Fatal("an 8-mbuf pool at line rate never ran dry; the test needs a smaller pool")
	}
	if err := res.CheckConservation(); err == nil {
		t.Fatalf("CheckConservation accepted %d frames lost to a dry pool", res.AllocFailures)
	}
}

// TestFlowScaleChurnSoak is the bounded-memory churn soak: a large
// Zipf-skewed flow population with continuous flow birth/death, a hard
// table memory budget, and exact drop attribution. Short mode runs the
// 100k-flow smoke (the check.sh -race gate); full mode runs a million
// flows and at least a million churn events each way.
func TestFlowScaleChurnSoak(t *testing.T) {
	cfg := FlowScaleConfig{
		Flows:          1_000_000,
		ZipfSkew:       1.2,
		ChurnPerSec:    25e6,
		Window:         50 * eventsim.Millisecond,
		FlowTTL:        20 * eventsim.Millisecond,
		MemBudgetBytes: 256 << 20,
	}
	var wantChurn uint64 = 1_000_000
	if testing.Short() {
		cfg.Flows = 100_000
		cfg.ChurnPerSec = 10e6
		cfg.Window = 8 * eventsim.Millisecond
		cfg.FlowTTL = 2 * eventsim.Millisecond
		cfg.MemBudgetBytes = 64 << 20
		wantChurn = 50_000
	}
	res, err := RunFlowScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flows=%d good=%.1f Mbps pkts=%d hits=%d misses=%d churned=%d tables=%+v",
		cfg.Flows, res.Throughput.GoodBps/1e6, res.Throughput.Pkts,
		res.CacheHits, res.CacheMisses, res.Churned, res.Tables)
	if err := res.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	for _, tab := range res.Tables {
		if tab.MemBytes > uint64(cfg.MemBudgetBytes) {
			t.Fatalf("table %s at %d bytes exceeds the %d budget", tab.Name, tab.MemBytes, cfg.MemBudgetBytes)
		}
	}
	if res.Churned < wantChurn {
		t.Errorf("churn soak too shallow: churned=%d, want >= %d",
			res.Churned, wantChurn)
	}
	if res.Throughput.GoodBps <= 0 {
		t.Fatalf("no goodput under churn: %+v", res.Throughput)
	}
	st := res.Tables[0].Stats
	if st.Entries == 0 {
		t.Fatal("verdict cache empty after soak")
	}
	// Churned-out flows must actually age off the TTL wheel: the soak
	// retires >= wantChurn flows, so idle expiry has real work.
	if st.EvictedIdle == 0 {
		t.Error("no idle expirations despite churn and an armed TTL")
	}
}

// TestFlowStateFailover is the flow-state consistency audit across the
// accelerator fault path: NAT'd flows ride the ipsec accelerator
// through quarantine -> software fallback -> ICAP reload, and the NAT
// state must come out the other side exactly matching the shadow
// model — stable per-flow ports, an exact port set,
// balanced ledger, nothing leaked.
func TestFlowStateFailover(t *testing.T) {
	res, err := runFlowStateFailover(flowStateFailoverConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("quarantines=%d reloads=%d ok=%d fallback=%d unprocessed=%d mappings=%d shadow=%d",
		res.Quarantines, res.Reloads, res.DeliveredOK, res.DeliveredFallback,
		res.DeliveredUnprocessed, res.Mappings, res.ShadowEntries)

	// The run must actually have exercised the fault path end to end.
	if res.Quarantines == 0 || res.Reloads == 0 {
		t.Errorf("fault path not exercised: quarantines=%d reloads=%d", res.Quarantines, res.Reloads)
	}
	if res.DeliveredFallback == 0 {
		t.Error("software fallback never carried traffic")
	}
	if res.DeliveredOK == 0 {
		t.Error("accelerator path never delivered")
	}

	// Flow-state audit: the shadow model recorded every flow's external
	// port at first translation; the NAT must still agree on all of them,
	// and hold exactly that many mappings (TTL outlives the run).
	if res.PortMismatches != 0 {
		t.Errorf("%d flows remapped across fault transitions", res.PortMismatches)
	}
	if res.ShadowEntries == 0 {
		t.Fatal("shadow model empty; harness generated no flows")
	}
	if res.Mappings != res.ShadowEntries {
		t.Errorf("NAT holds %d mappings, shadow model has %d", res.Mappings, res.ShadowEntries)
	}

	// Ledger and leak checks, same discipline as the failover harness.
	if res.Leaked != 0 {
		t.Errorf("%d mbufs leaked", res.Leaked)
	}
	if res.Stats.DMARetryGiveUps != 0 {
		t.Errorf("%d DMA retry give-ups; transient faults should be masked", res.Stats.DMARetryGiveUps)
	}
}

// TestChurnIsNotAnEvent checks that flow churn costs the event heap
// nothing: at fw_flows1m's rate of a million steps a second the run takes
// as many heap events as the same run without churn. The generator
// applies the steps due where it draws flows instead.
func TestChurnIsNotAnEvent(t *testing.T) {
	run := func(churn float64) FlowScaleResult {
		res, err := RunFlowScale(FlowScaleConfig{Window: 2 * eventsim.Millisecond, ChurnPerSec: churn})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with, without := run(1e6), run(0)
	if with.Churned == 0 {
		t.Fatal("no churn step ran")
	}
	if w, wo := with.Sim.HeapEvents, without.Sim.HeapEvents; w != wo {
		t.Errorf("%d heap events with %d churn steps, %d without churn", w, with.Churned, wo)
	}
}
