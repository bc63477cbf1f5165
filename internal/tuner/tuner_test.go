package tuner

import (
	"testing"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// fakeAct is an in-memory Actuator: the control-law tests drive the
// Tuner against it without standing up a runtime.
type fakeAct struct {
	nodes     int
	batch     map[core.AccID]int
	flush     map[core.AccID]eventsim.Time
	burst     []int
	rejected  []uint64
	hot       []bool
	setCalls  int
	burstSets int
}

func newFakeAct(nodes int) *fakeAct {
	return &fakeAct{
		nodes:    nodes,
		batch:    make(map[core.AccID]int),
		flush:    make(map[core.AccID]eventsim.Time),
		burst:    []int{64, 64, 64, 64}[:nodes],
		rejected: make([]uint64, nodes),
		hot:      make([]bool, nodes),
	}
}

func (f *fakeAct) Nodes() int                  { return f.nodes }
func (f *fakeAct) BatchBytes() int             { return 6 * 1024 }
func (f *fakeAct) FlushTimeout() eventsim.Time { return 20 * eventsim.Microsecond }
func (f *fakeAct) Burst(node int) int          { return f.burst[node] }
func (f *fakeAct) AccInfo(acc core.AccID) (core.AccInfo, error) {
	return core.AccInfo{AccID: acc, Name: "loopback", Node: 0, Ready: true}, nil
}

func (f *fakeAct) SetAccBatchBytes(acc core.AccID, bytes int) error {
	f.batch[acc] = bytes
	f.setCalls++
	return nil
}

func (f *fakeAct) SetAccFlushTimeout(acc core.AccID, d eventsim.Time) error {
	f.flush[acc] = d
	f.setCalls++
	return nil
}

func (f *fakeAct) SetBurst(node, burst int) error {
	f.burst[node] = burst
	f.burstSets++
	return nil
}

func (f *fakeAct) IBQPressure(node int) (uint64, bool, int, int) {
	return f.rejected[node], f.hot[node], 0, 256
}

// pushSpans records batches of the given size for acc 1 into the span
// ring.
func pushSpans(tel *telemetry.Registry, n int, bytes uint32) {
	for i := 0; i < n; i++ {
		sp := telemetry.Span{AccID: 1, Packets: 4, Bytes: bytes,
			Start: eventsim.Time(i+1) * eventsim.Microsecond}
		sp.StageEnd[telemetry.StageDistribute] = sp.Start + 10*eventsim.Microsecond
		tel.Spans.Push(&sp)
	}
}

func newTestTuner(t *testing.T, act *fakeAct) (*Tuner, *eventsim.Sim, *telemetry.Registry) {
	t.Helper()
	sim := eventsim.New()
	tel := telemetry.New(256)
	tun, err := New(sim, act, tel)
	if err != nil {
		t.Fatal(err)
	}
	return tun, sim, tel
}

// window advances virtual time by one sampling interval so the armed
// timer fires exactly once.
func window(sim *eventsim.Sim) {
	sim.Run(sim.Now() + interval + eventsim.Nanosecond)
}

func TestTunerShrinksOnLowFill(t *testing.T) {
	act := newFakeAct(1)
	tun, sim, tel := newTestTuner(t, act)
	if err := tun.Enable(); err != nil {
		t.Fatal(err)
	}
	// Trough traffic: batches flushing at ~1/12 of the 6 KB target.
	for i := 0; i < 4; i++ {
		pushSpans(tel, 10, 512)
		window(sim)
	}
	st := tun.Status()
	if !st.Enabled || st.Windows != 4 {
		t.Fatalf("status = %+v, want enabled with 4 windows", st)
	}
	if st.ShrinkDecisions == 0 {
		t.Fatalf("no shrink decisions after 4 low-fill windows: %+v", st)
	}
	if len(st.Accs) != 1 || st.Accs[0].BatchTarget >= 6*1024 {
		t.Fatalf("acc target did not shrink: %+v", st.Accs)
	}
	if got := act.batch[1]; got == 0 || got >= 6*1024 {
		t.Fatalf("actuator batch override = %d, want shrunk target", got)
	}
	if got := act.flush[1]; got == 0 || got >= 20*eventsim.Microsecond {
		t.Fatalf("actuator flush override = %v, want shortened deadline", got)
	}
}

func TestTunerGrowsBackUnderPressure(t *testing.T) {
	act := newFakeAct(1)
	tun, sim, tel := newTestTuner(t, act)
	if err := tun.Enable(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // shrink first
		pushSpans(tel, 10, 512)
		window(sim)
	}
	shrunk := tun.Status().Accs[0].BatchTarget
	if shrunk >= 6*1024 {
		t.Fatalf("precondition: target did not shrink (%d)", shrunk)
	}
	// Peak: full batches plus IBQ pressure.
	act.hot[0] = true
	for i := 0; i < 8; i++ {
		pushSpans(tel, 10, 6*1024)
		window(sim)
	}
	st := tun.Status()
	if st.Accs[0].BatchTarget != 6*1024 {
		t.Fatalf("target = %d after sustained pressure, want back at 6144", st.Accs[0].BatchTarget)
	}
	if st.GrowDecisions == 0 {
		t.Fatal("no grow decisions recorded")
	}
	if act.burst[0] <= 64 {
		t.Fatalf("burst = %d under pressure, want grown above baseline", act.burst[0])
	}
}

func TestTunerHysteresisHoldsOneWindowSignals(t *testing.T) {
	act := newFakeAct(1)
	tun, sim, tel := newTestTuner(t, act)
	if err := tun.Enable(); err != nil {
		t.Fatal(err)
	}
	// Alternate low-fill and dead-zone windows: the shrink streak never
	// reaches the hysteresis threshold of 2, so nothing may change.
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			pushSpans(tel, 10, 512) // fill ~0.08: shrink signal
		} else {
			pushSpans(tel, 10, 3*1024) // fill 0.5: dead zone
		}
		window(sim)
	}
	st := tun.Status()
	if st.GrowDecisions+st.ShrinkDecisions != 0 {
		t.Fatalf("flapping signal produced %d decisions, hysteresis should hold", st.GrowDecisions+st.ShrinkDecisions)
	}
	if act.setCalls != 0 {
		t.Fatalf("actuator called %d times without a sustained signal", act.setCalls)
	}
}

func TestTunerQuietWindowResetsStreaks(t *testing.T) {
	act := newFakeAct(1)
	tun, sim, tel := newTestTuner(t, act)
	if err := tun.Enable(); err != nil {
		t.Fatal(err)
	}
	pushSpans(tel, 10, 512)
	window(sim) // shrink streak 1
	window(sim) // quiet window: streak must reset, not act
	pushSpans(tel, 10, 512)
	window(sim) // shrink streak back to 1
	if st := tun.Status(); st.ShrinkDecisions != 0 {
		t.Fatalf("a lull cashed in a stale streak: %+v", st)
	}
}

func TestTunerDisableRollsBack(t *testing.T) {
	act := newFakeAct(1)
	tun, sim, tel := newTestTuner(t, act)
	if err := tun.Enable(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pushSpans(tel, 10, 512)
		window(sim)
	}
	if act.batch[1] == 0 {
		t.Fatal("precondition: no override applied")
	}
	if err := tun.Disable(); err != nil {
		t.Fatal(err)
	}
	if act.batch[1] != 0 || act.flush[1] != 0 {
		t.Fatalf("overrides not cleared at disable: batch=%d flush=%v", act.batch[1], act.flush[1])
	}
	if act.burst[0] != 64 {
		t.Fatalf("burst not restored: %d", act.burst[0])
	}
	if tun.enabled {
		t.Fatal("still enabled")
	}
	// The stopped timer must not keep deciding.
	pushSpans(tel, 10, 512)
	before := tun.Status().Windows
	window(sim)
	if tun.Status().Windows != before {
		t.Fatal("windows advanced while disabled")
	}
}

func TestTunerRequiresTelemetry(t *testing.T) {
	if _, err := New(eventsim.New(), newFakeAct(1), nil); err == nil {
		t.Fatal("New accepted a nil telemetry registry")
	}
}

func TestTunerTickSteadyStateZeroAllocs(t *testing.T) {
	act := newFakeAct(1)
	tun, sim, tel := newTestTuner(t, act)
	if err := tun.Enable(); err != nil {
		t.Fatal(err)
	}
	// Warm: adopt the accelerator, settle the configuration.
	for i := 0; i < 10; i++ {
		pushSpans(tel, 16, 3*1024) // dead zone: no reconfiguration
		window(sim)
	}
	allocs := testing.AllocsPerRun(100, func() {
		pushSpans(tel, 16, 3*1024)
		window(sim)
	})
	if allocs != 0 {
		t.Fatalf("steady-state tuner window allocates %.1f allocs, want 0", allocs)
	}
}
