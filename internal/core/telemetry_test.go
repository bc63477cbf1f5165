package core

import (
	"bytes"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// telemetryRig is newRig with the registry armed and one burst helper.
func telemetryRig(t *testing.T) (*rig, *telemetry.Registry, NFID, AccID) {
	t.Helper()
	tel := telemetry.New(16)
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond, Telemetry: tel},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, err := r.rt.Register("telemetry", 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	return r, tel, nf, acc
}

func telemetryBurst(t *testing.T, r *rig, nf NFID, acc AccID, payload []byte, pkts, out []*mbuf.Mbuf) {
	t.Helper()
	nPkts := len(pkts)
	for i := range pkts {
		pkts[i] = r.packet(t, nf, acc, payload)
	}
	n, err := r.rt.SendPackets(nf, pkts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range pkts[n:] {
		_ = r.pool.Free(m)
	}
	r.sim.Run(r.sim.Now() + 300*eventsim.Microsecond)
	got, _ := r.rt.ReceivePackets(nf, out)
	if got != nPkts {
		t.Fatalf("%d of %d packets returned", got, nPkts)
	}
	for i := 0; i < got; i++ {
		_ = r.pool.Free(out[i])
	}
}

// TestTelemetryStageClock drives clean bursts through the full FPGA chain
// and checks every pipeline stage recorded plausible latencies, spans
// carry the batch identity, and the per-core counters reconcile with the
// traffic.
func TestTelemetryStageClock(t *testing.T) {
	r, tel, nf, acc := telemetryRig(t)
	const rounds, nPkts = 4, 32
	payload := bytes.Repeat([]byte{0x5A}, 200)
	pkts := make([]*mbuf.Mbuf, nPkts)
	out := make([]*mbuf.Mbuf, 2*nPkts)
	for i := 0; i < rounds; i++ {
		telemetryBurst(t, r, nf, acc, payload, pkts, out)
	}

	snap := tel.Snapshot()
	batches := snap.CounterTotal(telemetry.CounterBatches)
	if batches == 0 {
		t.Fatal("no batches counted")
	}
	if got := snap.CounterTotal(telemetry.CounterPackets); got != rounds*nPkts {
		t.Errorf("packets counted = %d, want %d", got, rounds*nPkts)
	}
	if snap.CounterTotal(telemetry.CounterBytes) == 0 {
		t.Error("no bytes counted")
	}
	if got := snap.CounterTotal(telemetry.CounterFailedBatches); got != 0 {
		t.Errorf("failed batches = %d on a clean run", got)
	}

	// Every stage of the FPGA chain must have observations: per-packet
	// IBQ waits plus one per-batch sample for the other five.
	if got := snap.Stages[telemetry.StageIBQWait].Count; got != rounds*nPkts {
		t.Errorf("ibq_wait observations = %d, want %d (one per packet)", got, rounds*nPkts)
	}
	for s := telemetry.StagePack; s < telemetry.NumStages; s++ {
		h := snap.Stages[s]
		if h.Count != batches {
			t.Errorf("stage %s observations = %d, want %d (one per batch)", s, h.Count, batches)
		}
	}
	// DMA and Dispatcher service histograms fed from inside pcie/fpga:
	// one H2C and one C2H transfer and one dispatch per batch.
	if got := snap.DMAH2C.Count; got != batches {
		t.Errorf("h2c transfers = %d, want %d", got, batches)
	}
	if got := snap.DMAC2H.Count; got != batches {
		t.Errorf("c2h transfers = %d, want %d", got, batches)
	}
	if got := snap.Dispatch.Count; got != batches {
		t.Errorf("dispatches = %d, want %d", got, batches)
	}

	if uint64(len(snap.Spans)) != batches && len(snap.Spans) != tel.Spans.Cap() {
		t.Fatalf("%d spans retained for %d batches (cap %d)", len(snap.Spans), batches, tel.Spans.Cap())
	}
	for _, sp := range snap.Spans {
		if sp.Outcome != telemetry.OutcomeOK {
			t.Errorf("span %d outcome %s on a clean run", sp.Seq, sp.Outcome)
		}
		if sp.AccID != uint16(acc) || sp.NFID != uint16(nf) {
			t.Errorf("span %d identity nf=%d acc=%d, want nf=%d acc=%d", sp.Seq, sp.NFID, sp.AccID, nf, acc)
		}
		if sp.Packets == 0 || sp.Bytes == 0 {
			t.Errorf("span %d empty: %+v", sp.Seq, sp)
		}
		// Stage timestamps must be monotonic along the chain.
		prev := sp.Start
		for s := telemetry.StagePack; s < telemetry.NumStages; s++ {
			end := sp.StageEnd[s]
			if end == 0 {
				t.Errorf("span %d stage %s did not run", sp.Seq, s)
				continue
			}
			if end < prev {
				t.Errorf("span %d stage %s ends at %d before %d", sp.Seq, s, end, prev)
			}
			prev = end
		}
	}

	// Ring/arena occupancy gauges are registered and evaluate cleanly
	// between sim runs.
	sawRing, sawArena := false, false
	for _, g := range snap.Gauges {
		switch g.Name {
		case "dhl_ring_occupancy":
			sawRing = true
		case "dhl_arena_outstanding":
			sawArena = true
			if g.Value != 0 {
				t.Errorf("arena outstanding %v between bursts", g.Value)
			}
		}
	}
	if !sawRing || !sawArena {
		t.Errorf("occupancy gauges missing: ring=%v arena=%v", sawRing, sawArena)
	}
}

// TestTelemetrySteadyStateZeroAllocs is the telemetry-armed twin of
// TestSteadyStateZeroAllocs: with histograms, counters, the stage clock
// and the span ring all recording, a warm steady-state burst still must
// not allocate.
func TestTelemetrySteadyStateZeroAllocs(t *testing.T) {
	r, tel, nf, acc := telemetryRig(t)
	const nPkts = 32
	payload := bytes.Repeat([]byte{0x5A}, 200)
	pkts := make([]*mbuf.Mbuf, nPkts)
	out := make([]*mbuf.Mbuf, 2*nPkts)
	cycle := func() { telemetryBurst(t, r, nf, acc, payload, pkts, out) }
	for i := 0; i < 50; i++ {
		cycle()
	}
	before := tel.Spans.Count()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("telemetry-armed steady-state burst allocates %.1f objects, want 0", avg)
	}
	if tel.Spans.Count() == before {
		t.Error("no spans recorded during the measured cycles")
	}
	tx := r.rt.nodeTx[0]
	if n := tx.arena.outstanding(); n != 0 {
		t.Errorf("%d arena segments leaked", n)
	}
	if n := r.pool.InUse(); n != 0 {
		t.Errorf("%d mbufs leaked", n)
	}
}

// TestTelemetryFailureOutcome arms fault injection alongside telemetry
// and checks failure paths land in the failed counters and span outcomes.
func TestTelemetryFailureOutcome(t *testing.T) {
	tel := telemetry.New(64)
	plan := mustPlan(t, 7,
		faultinject.Spec{Kind: faultinject.ModuleError, EveryN: 1})
	r := newFaultRig(t, Config{
		FlushTimeout: 5 * eventsim.Microsecond,
		Telemetry:    tel,
	}, plan, 0, revSpec())
	nf, err := r.rt.Register("chaos", 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	payload := bytes.Repeat([]byte{0x11}, 200)
	pkts := make([]*mbuf.Mbuf, 8)
	// Enough consecutive failing batches to walk the FSM through
	// Degraded into Quarantined.
	for round := 0; round < 8; round++ {
		for i := range pkts {
			pkts[i] = r.packet(t, nf, acc, payload)
		}
		if _, serr := r.rt.SendPackets(nf, pkts); serr != nil {
			t.Fatal(serr)
		}
		r.sim.Run(r.sim.Now() + 2*eventsim.Millisecond)
	}

	snap := tel.Snapshot()
	if got := snap.CounterTotal(telemetry.CounterFailedBatches); got == 0 {
		t.Error("module-error run counted no failed batches")
	}
	sawFailed := false
	for _, sp := range snap.Spans {
		if sp.Outcome == telemetry.OutcomeFailed {
			sawFailed = true
			if sp.StageEnd[telemetry.StageDistribute] != 0 {
				t.Errorf("failed span %d has a distribute stamp", sp.Seq)
			}
		}
	}
	if !sawFailed {
		t.Error("no failed span recorded")
	}
	if snap.Health.Degraded == 0 && snap.Health.Quarantined == 0 {
		t.Error("health FSM transitions not counted")
	}
}
