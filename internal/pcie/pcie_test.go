package pcie

import (
	"errors"
	"math"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

func TestDriverModeDefaults(t *testing.T) {
	sim := eventsim.New()
	uio := NewEngine(sim, Config{})
	if uio.Mode() != UIOPoll {
		t.Errorf("default mode %v", uio.Mode())
	}
	kern := NewEngine(sim, Config{Mode: InKernel})
	if kern.Mode() != InKernel {
		t.Errorf("kernel mode %v", kern.Mode())
	}
	if UIOPoll.String() != "uio-poll" || InKernel.String() != "in-kernel" {
		t.Error("mode strings")
	}
}

func TestSustainedCurveAnchors(t *testing.T) {
	sim := eventsim.New()
	e := NewEngine(sim, Config{})
	// Figure 4(a): >= 42 Gbps only for transfers >= 6 KB.
	if got := e.SustainedBps(6144) / 1e9; got < 42 || got > 43 {
		t.Errorf("6KB sustained %.2f Gbps", got)
	}
	if got := e.SustainedBps(64) / 1e9; got > 15 {
		t.Errorf("64B sustained %.2f Gbps should be far below ceiling", got)
	}
	// Monotone in size.
	prev := 0.0
	for _, s := range []int{64, 256, 1024, 4096, 16384, 65536} {
		cur := e.SustainedBps(s)
		if cur <= prev {
			t.Errorf("curve not monotone at %dB", s)
		}
		prev = cur
	}
	if e.SustainedBps(0) != 0 {
		t.Error("zero size should have zero throughput")
	}
}

func TestRoundTripAnchors(t *testing.T) {
	sim := eventsim.New()
	e := NewEngine(sim, Config{})
	// Figure 4(b): ~2us small-transfer RTT, 3.8us at 6KB.
	if got := e.RoundTripPs(64).Micros(); got < 1.4 || got > 2.2 {
		t.Errorf("64B RTT %.2fus", got)
	}
	if got := e.RoundTripPs(6144).Micros(); got < 3.4 || got > 4.2 {
		t.Errorf("6KB RTT %.2fus", got)
	}
	kern := NewEngine(sim, Config{Mode: InKernel})
	if got := kern.RoundTripPs(64).Micros(); got < 9000 {
		t.Errorf("in-kernel RTT %.0fus, want ~10ms", got)
	}
	remote := NewEngine(sim, Config{RemoteNUMA: true})
	delta := remote.RoundTripPs(64) - e.RoundTripPs(64)
	if math.Abs(float64(delta)-perf.DMANUMAPenaltyPs) > 1000 {
		t.Errorf("NUMA penalty %v ps", delta)
	}
}

func TestTransferValidation(t *testing.T) {
	sim := eventsim.New()
	e := NewEngine(sim, Config{})
	if _, _, err := e.Transfer(H2C, 0, nil); !errors.Is(err, ErrZeroSize) {
		t.Errorf("zero: %v", err)
	}
	if _, _, err := e.Transfer(H2C, MaxTransfer+1, nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized: %v", err)
	}
}

func TestTransferSerializesPerDirection(t *testing.T) {
	sim := eventsim.New()
	e := NewEngine(sim, Config{})
	var first, second eventsim.Time
	c1, _, err := e.Transfer(H2C, 6144, func() { first = sim.Now() })
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := e.Transfer(H2C, 6144, func() { second = sim.Now() })
	if err != nil {
		t.Fatal(err)
	}
	sim.RunAll()
	if first != c1 || second != c2 {
		t.Errorf("callbacks at %v/%v, scheduled %v/%v", first, second, c1, c2)
	}
	occ := eventsim.Time((6144 + perf.DMAOverheadBytes) * 8 / perf.DMAMaxBps * 1e12)
	if second-first != occ {
		t.Errorf("serialization gap %v, want %v", second-first, occ)
	}
}

func TestDirectionsAreIndependent(t *testing.T) {
	sim := eventsim.New()
	e := NewEngine(sim, Config{})
	var h2c, c2h eventsim.Time
	_, _, _ = e.Transfer(H2C, 6144, func() { h2c = sim.Now() })
	_, _, _ = e.Transfer(C2H, 6144, func() { c2h = sim.Now() })
	sim.RunAll()
	if h2c != c2h {
		t.Errorf("full-duplex directions should complete together: %v vs %v", h2c, c2h)
	}
}

func TestBacklogAndStats(t *testing.T) {
	sim := eventsim.New()
	e := NewEngine(sim, Config{})
	if e.Backlog(H2C) != 0 {
		t.Error("idle backlog non-zero")
	}
	for i := 0; i < 4; i++ {
		if _, _, err := e.Transfer(H2C, 6144, nil); err != nil {
			t.Fatal(err)
		}
	}
	if e.Backlog(H2C) <= 0 {
		t.Error("backlog not tracked")
	}
	if e.Backlog(C2H) != 0 {
		t.Error("C2H backlog leaked from H2C")
	}
	st := e.DirStats(H2C)
	if st.Transfers != 4 || st.Bytes != 4*6144 {
		t.Errorf("stats %+v", st)
	}
	sim.Run(1 * eventsim.Second) // advance past all booked occupancy
	if e.Backlog(H2C) != 0 {
		t.Error("backlog after drain")
	}
}

func TestMeasuredThroughputMatchesCurve(t *testing.T) {
	// Saturating one direction must yield exactly the modeled curve.
	for _, size := range []int{64, 1024, 6144, 65536} {
		sim := eventsim.New()
		e := NewEngine(sim, Config{})
		var bytes uint64
		n := 2000
		for i := 0; i < n; i++ {
			if _, _, err := e.Transfer(H2C, size, func() { bytes += uint64(size) }); err != nil {
				t.Fatal(err)
			}
		}
		sim.RunAll()
		// Completion of the last transfer includes one one-way latency;
		// subtract it for the pure serialization rate.
		elapsed := sim.Now() - eventsim.Time(perf.DMABaseRTTPs/2)
		got := float64(bytes) * 8 / elapsed.Seconds()
		want := e.SustainedBps(size)
		if rel := got / want; rel < 0.999 || rel > 1.001 {
			t.Errorf("%dB: measured %.3f Gbps, curve %.3f Gbps", size, got/1e9, want/1e9)
		}
	}
}

func TestTransferInjectedError(t *testing.T) {
	sim := eventsim.New()
	plan := mustPlan(t, 1, faultinject.Spec{Kind: faultinject.DMAH2CError, EveryN: 2})
	e := NewEngine(sim, Config{Faults: plan})
	if _, _, err := e.Transfer(H2C, 1024, nil); err != nil {
		t.Fatalf("first transfer: %v", err)
	}
	if _, _, err := e.Transfer(H2C, 1024, nil); !errors.Is(err, ErrTransferFault) {
		t.Fatalf("second transfer: %v, want ErrTransferFault", err)
	}
	st := e.DirStats(H2C)
	if st.Faults != 1 || st.Transfers != 1 {
		t.Errorf("stats %+v: want 1 fault, 1 completed transfer", st)
	}
	if plan.Injected(faultinject.DMAH2CError) != st.Faults {
		t.Error("injected != observed")
	}
	// C2H must be unaffected by H2C specs.
	if _, _, err := e.Transfer(C2H, 1024, nil); err != nil {
		t.Errorf("c2h: %v", err)
	}
}

func TestTransferInjectedCorruptAndStall(t *testing.T) {
	sim := eventsim.New()
	const stall = 25 * eventsim.Microsecond
	plan := mustPlan(t, 1,
		faultinject.Spec{Kind: faultinject.DMAC2HCorrupt, EveryN: 1, Count: 1},
		faultinject.Spec{Kind: faultinject.DMAC2HStall, EveryN: 1, Count: 1, Stall: stall},
	)
	e := NewEngine(sim, Config{Faults: plan})
	clean := NewEngine(sim, Config{})
	want, _, err := clean.Transfer(C2H, 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, outcome, err := e.Transfer(C2H, 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outcome&faultinject.Corrupted == 0 || outcome&faultinject.Stalled == 0 {
		t.Fatalf("outcome %b, want corrupted|stalled", outcome)
	}
	if got != want+stall {
		t.Errorf("stalled completion %v, want %v + %v", got, want, stall)
	}
	st := e.DirStats(C2H)
	if st.Corrupted != 1 || st.Stalled != 1 || st.StallPs != stall {
		t.Errorf("stats %+v", st)
	}
	// Counts exhausted: the next transfer is clean and, critically, the
	// stall did not book channel occupancy.
	next, outcome, err := e.Transfer(C2H, 2048, nil)
	if err != nil || outcome != 0 {
		t.Fatalf("post-storm transfer outcome=%b err=%v", outcome, err)
	}
	nextClean, _, _ := clean.Transfer(C2H, 2048, nil)
	if next != nextClean {
		t.Errorf("stall leaked into channel occupancy: %v vs %v", next, nextClean)
	}
}

// mustPlan builds a fault plan from known-good specs.
func mustPlan(t testing.TB, seed uint64, specs ...faultinject.Spec) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.NewPlan(seed, specs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
