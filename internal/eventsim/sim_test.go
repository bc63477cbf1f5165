package eventsim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if s := Second.Seconds(); s != 1.0 {
		t.Errorf("Seconds() = %v", s)
	}
	if us := (2500 * Nanosecond).Micros(); us != 2.5 {
		t.Errorf("Micros() = %v", us)
	}
	if got := FromSeconds(0.5); got != 500*Millisecond {
		t.Errorf("FromSeconds(0.5) = %v", got)
	}
	if (1500 * Nanosecond).String() != "1.500us" {
		t.Errorf("String() = %q", (1500 * Nanosecond).String())
	}
}

func TestSimRunsEventsInTimeOrder(t *testing.T) {
	s := New()
	var got []int
	s.At(30*Nanosecond, func() { got = append(got, 3) })
	s.At(10*Nanosecond, func() { got = append(got, 1) })
	s.At(20*Nanosecond, func() { got = append(got, 2) })
	s.RunAll()
	if n := s.Processed(); n != 3 {
		t.Fatalf("processed %d events, want 3", n)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order %v", got)
		}
	}
}

func TestSimFIFOAtEqualTimes(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5*Microsecond, func() { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events not FIFO: pos %d got %d", i, v)
		}
	}
}

func TestSimAfterAndNow(t *testing.T) {
	s := New()
	var at Time
	s.After(7*Microsecond, func() {
		at = s.Now()
		s.After(3*Microsecond, func() { at = s.Now() })
	})
	s.RunAll()
	if at != 10*Microsecond {
		t.Errorf("nested After landed at %v", at)
	}
}

func TestSimPastSchedulingClampsToNow(t *testing.T) {
	s := New()
	ran := false
	s.At(10*Microsecond, func() {
		s.At(5*Microsecond, func() { // in the past
			ran = true
			if s.Now() != 10*Microsecond {
				t.Errorf("past event ran at %v", s.Now())
			}
		})
	})
	s.RunAll()
	if !ran {
		t.Error("past-scheduled event never ran")
	}
}

func TestSimRunHorizonStopsAndAdvancesClock(t *testing.T) {
	s := New()
	ran := 0
	s.At(5*Microsecond, func() { ran++ })
	s.At(50*Microsecond, func() { ran++ })
	s.Run(10 * Microsecond)
	if ran != 1 {
		t.Fatalf("ran %d events before horizon, want 1", ran)
	}
	if s.Now() != 10*Microsecond {
		t.Errorf("clock at %v after horizon run", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending %d", s.Pending())
	}
	s.RunAll()
	if ran != 2 {
		t.Errorf("second event never ran")
	}
}

func TestSimNilAndNegative(t *testing.T) {
	s := New()
	s.At(5, nil) // must not panic or enqueue
	if s.Pending() != 0 {
		t.Error("nil event enqueued")
	}
	ran := false
	s.After(-5, func() { ran = true })
	s.RunAll()
	if !ran {
		t.Error("negative delay event never ran")
	}
}

func TestSimDeterminism(t *testing.T) {
	// Two identical simulations must produce identical traces.
	run := func() []Time {
		s := New()
		var trace []Time
		var rec func(depth int)
		seed := Time(1)
		rec = func(depth int) {
			trace = append(trace, s.Now())
			if depth > 6 {
				return
			}
			seed = seed*1103515245 + 12345
			d := seed % 97
			if d < 0 {
				d = -d
			}
			s.After(d, func() { rec(depth + 1) })
			s.After(d/2, func() { rec(depth + 1) })
		}
		s.After(0, func() { rec(0) })
		s.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCoreCycleTimeRoundTrip(t *testing.T) {
	s := New()
	c := NewCore(s, 3, 1, 2.1e9)
	if c.id != 3 || c.node != 1 || c.hz != 2.1e9 {
		t.Errorf("core identity: %v", c)
	}
	err := quick.Check(func(n uint16) bool {
		cycles := float64(n)
		back := float64(c.CycleTime(cycles)) * c.hz / 1e12
		return back >= cycles-1 && back <= cycles+1
	}, nil)
	if err != nil {
		t.Error(err)
	}
	if c.CycleTime(-5) != 0 {
		t.Error("negative cycles should cost zero time")
	}
}

func TestPollLoopIdleChargesAndCommitOrder(t *testing.T) {
	s := New()
	c := NewCore(s, 0, 0, 1e9)
	work := false
	commits := 0
	var loop *PollLoop
	loop = NewPollLoop(s, c, 10, func() (float64, func()) {
		if !work {
			return 0, nil // idle
		}
		work = false
		return 100, func() {
			commits++
			// 4 idle iterations at 10 cycles + 100 busy cycles @1GHz.
			if s.Now() != Time(4*10+100)*Nanosecond {
				t.Errorf("commit at %v", s.Now())
			}
			loop.Stop()
		}
	})
	loop.Start()
	// Work arrives during the fourth idle poll; the fifth finds it.
	s.At(35*Nanosecond, func() { work = true })
	s.RunAll()
	if commits != 1 {
		t.Errorf("commits = %d", commits)
	}
	if loop.Iterations() != 5 {
		t.Errorf("iterations = %d", loop.Iterations())
	}
	if s.Stats().PollsSkipped != 3 {
		t.Errorf("skipped %d polls, want 3 (the first and the fifth run the body)", s.Stats().PollsSkipped)
	}
}

// An idle loop's accounting must be complete whenever it can be read, and
// an idle system must not keep RunAll busy.
func TestPollLoopSkippedPollsAreAccounted(t *testing.T) {
	s := New()
	c := NewCore(s, 0, 0, 1e9)
	loop := NewPollLoop(s, c, 10, func() (float64, func()) { return 0, nil })
	loop.Start()
	if s.Pending() != 1 {
		t.Errorf("pending %d before the first poll", s.Pending())
	}
	for _, until := range []Time{95 * Nanosecond, 100 * Nanosecond, 1 * Millisecond} {
		s.Run(until)
		// Polls at 0, 10, ... ns: every one at or before until has run.
		polls := uint64(until/(10*Nanosecond)) + 1
		if loop.Iterations() != polls {
			t.Errorf("at %v: %d iterations, want %d", until, loop.Iterations(), polls)
		}
		if want := Time(polls) * 10 * Nanosecond; c.FreeAt() != want {
			t.Errorf("at %v: core free at %v, want %v", until, c.FreeAt(), want)
		}
		if u := c.Utilization(c.FreeAt()); u != 1 {
			t.Errorf("at %v: utilization %v, want 1", until, u)
		}
	}
	if s.Processed() != 3 { // Start's event, then the first poll of each later slice
		t.Errorf("executed %d events for %d polls", s.Processed(), loop.Iterations())
	}
	if s.Pending() != 1 {
		t.Errorf("pending %d with one parked loop", s.Pending())
	}

	// Nothing but idle loops left: RunAll returns rather than poll forever.
	before, events := loop.Iterations(), s.Processed()
	s.RunAll()
	if n := s.Processed() - events; n != 1 {
		t.Errorf("RunAll executed %d events on an idle system, want the one dirty poll", n)
	}
	if loop.Iterations() != before+1 {
		t.Errorf("RunAll polled %d times", loop.Iterations()-before)
	}
	// A horizon too close to the end of time to land a poll behind it ends
	// the run the same way instead of overflowing.
	s.Run(never - 1)
	if loop.Iterations() > before+2 || c.FreeAt() < 0 {
		t.Errorf("Run(never-1): %d iterations, free at %d", loop.Iterations(), c.FreeAt())
	}

	loop.Stop()
	if s.Pending() != 0 {
		t.Errorf("pending %d after stopping the parked loop", s.Pending())
	}
}

// nothing is an Input nobody ever produces into.
type nothing struct{}

func (nothing) Produced() uint64 { return 0 }

// A Run with nothing due leaves the idle loops' accounting where it was
// (Sim.hush). Read only after 1 000 such steps, and again after an event
// between two of them, it must still be every poll up to until.
func TestPollLoopQuietStepsAreAccounted(t *testing.T) {
	s := New()
	cores := []*Core{NewCore(s, 0, 0, 1e9), NewCore(s, 1, 0, 1e9)}
	idle := func() (float64, func()) { return 0, nil }
	declared, undeclared := NewPollLoop(s, cores[0], 10, idle), NewPollLoop(s, cores[1], 10, idle)
	declared.Watch(nothing{})
	declared.Start()
	undeclared.Start()
	steps := func() {
		for i := 0; i < 1000; i++ {
			s.Run(s.Now() + Microsecond)
		}
	}
	check := func(when string, l *PollLoop, c *Core, iterations uint64, freeAt Time) {
		t.Helper()
		if got := l.Iterations(); got != iterations {
			t.Errorf("%s: core %d: %d iterations, want %d", when, c.id, got, iterations)
		}
		if got := c.FreeAt(); got != freeAt {
			t.Errorf("%s: core %d free at %v, want %v", when, c.id, got, freeAt)
		}
		if u := c.Utilization(freeAt); u != 1 {
			t.Errorf("%s: core %d: utilization %v, want 1", when, c.id, u)
		}
	}

	// Polls at 0, 10, ... ns on both cores, every one up to 1 000 us: the
	// declared loop's body ran at the first, the undeclared loop's at the
	// first poll of every Run.
	steps()
	if got, want := s.Stats().PollsSkipped, uint64(2*100001-1-1000); got != want {
		t.Errorf("after 1 000 steps: %d polls skipped, want %d", got, want)
	}
	check("after 1 000 steps", declared, cores[0], 100001, 1000010*Nanosecond)
	check("after 1 000 steps", undeclared, cores[1], 100001, 1000010*Nanosecond)
	if s.Processed() != 1001 {
		t.Errorf("after 1 000 steps: %d events, want 1 001 body runs", s.Processed())
	}

	// One more quiet step, then an event between two polls, at 1 001.015
	// us, scheduled after it: it runs the undeclared loop's body once more,
	// at 1 001.020 us, and not the declared loop's. By 2 001 us both cores
	// have polled every 10 ns, 200 101 times, and are free at 2 001.010 us,
	// busy for all of it.
	s.Run(s.Now() + Microsecond)
	s.At(1001015*Nanosecond, func() {})
	steps()
	// Stats first this time: it lands both loops itself. Bodies run:
	// the declared loop's 1, the undeclared loop's 1 per Run and 1 more.
	if got, want := s.Stats().PollsSkipped, uint64(2*200101-(1+2001+1)); got != want {
		t.Errorf("after the event: %d polls skipped, want %d", got, want)
	}
	check("after the event", declared, cores[0], 200101, 2001010*Nanosecond)
	check("after the event", undeclared, cores[1], 200101, 2001010*Nanosecond)

	// With the undeclared loop stopped every step is quiet: one whose polls
	// land next to the end of time, then horizons too close to it to land a
	// poll behind. Nothing overflows.
	undeclared.Stop()
	s.Run(never - 20*Nanosecond)
	if f := cores[0].FreeAt(); f < never-20*Nanosecond || f > never-10*Nanosecond {
		t.Errorf("Run(never-20ns): core 0 free at %d", f)
	}
	before := declared.Iterations()
	s.Run(never - 1)
	s.RunAll()
	if declared.Iterations() > before+1 || cores[0].FreeAt() < 0 {
		t.Errorf("Run(never-1), RunAll: %d iterations, free at %d", declared.Iterations(), cores[0].FreeAt())
	}
}

// inbox is what a declared loop in the tests below watches: put grows it,
// and its loop's body takes everything and notes when.
type inbox struct {
	n, produced uint64
	seen        []Time
	loop        *PollLoop
}

func newInbox(s *Sim, core *Core) *inbox {
	in := &inbox{}
	in.loop = NewPollLoop(s, core, 10, func() (float64, func()) {
		if in.n == 0 {
			return 0, nil
		}
		in.n = 0
		in.seen = append(in.seen, s.Now())
		return 1, nil
	})
	in.loop.Watch(in)
	return in
}

func (in *inbox) Produced() uint64 { return in.produced }
func (in *inbox) put()             { in.n++; in.produced++ }

// A quiet step draws nothing only if the last one drew the seqs of every
// loop due now and nobody has drawn one since. Each half of that has a
// counter-example: a loop at a poll instant an event was scheduled for
// after the loop's seq was drawn must poll after the event, as the poll
// that scheduled it ran after the event was scheduled.
func TestQuietStepOrdersLoopsBehindLaterEvents(t *testing.T) {
	// An event scheduled between two Run calls for where a deferred loop
	// lands: polls at 0, 10, ... ns, the event at 120 ns, Run(100ns) and
	// Run(110ns) both quiet.
	s := New()
	in := newInbox(s, NewCore(s, 0, 0, 1e9))
	in.loop.Start()
	s.Run(100 * Nanosecond)
	s.At(120*Nanosecond, in.put)
	s.Run(110 * Nanosecond)
	s.Run(200 * Nanosecond)
	if len(in.seen) != 1 || in.seen[0] != 120*Nanosecond {
		t.Errorf("event scheduled between steps: the loop found it at %v, want at 120ns", in.seen)
	}

	// A loop the last quiet pass did not move, because it was not due yet,
	// behind an event scheduled after its seq was drawn: polls at 5, 15,
	// ... ns, the event scheduled at 97 ns for 115 ns, Run(100ns) quiet
	// from 100 ns on (the loop is at 105 ns) and Run(110ns) quiet.
	s = New()
	ahead := newInbox(s, NewCore(s, 0, 0, 1e9))
	late := newInbox(s, NewCore(s, 1, 0, 1e9))
	ahead.loop.Start()
	s.At(5*Nanosecond, late.loop.Start)
	s.At(97*Nanosecond, func() { s.At(115*Nanosecond, late.put) })
	s.Run(100 * Nanosecond)
	s.Run(110 * Nanosecond)
	s.Run(200 * Nanosecond)
	if len(late.seen) != 1 || late.seen[0] != 115*Nanosecond {
		t.Errorf("loop not moved by the last quiet step: it found the event's item at %v, want at 115ns", late.seen)
	}
}

// A deadline declared with WakeBy brings the body back without any event.
func TestPollLoopWakeBy(t *testing.T) {
	s := New()
	c := NewCore(s, 0, 0, 1e9)
	var ran []Time
	var loop *PollLoop
	loop = NewPollLoop(s, c, 10, func() (float64, func()) {
		ran = append(ran, s.Now())
		if s.Now() < 95*Nanosecond {
			loop.WakeBy(200 * Nanosecond)
			loop.WakeBy(95 * Nanosecond) // the earliest counts
		}
		return 0, nil
	})
	loop.Start()
	s.Run(300 * Nanosecond)
	if len(ran) != 2 || ran[0] != 0 || ran[1] != 100*Nanosecond {
		t.Errorf("body ran at %v, want at 0 and at the first poll past 95ns", ran)
	}
	if loop.Iterations() != 31 {
		t.Errorf("iterations = %d", loop.Iterations())
	}
}

// counter is an Input whose count a test bumps by hand.
type counter struct{ n uint64 }

func (c *counter) Produced() uint64 { return c.n }

// Sim.WakeBy declares the deadline of the loop whose body is running, and
// of nothing else: called from a heap event, from a commit or between two
// Run calls, it must not wake the loop whose body ran last. Loop a
// watches an input only the test produces into, so nothing but a deadline
// runs its body in between; b's one busy iteration commits after a's
// body ran.
func TestSimWakeByOnlyInsideABody(t *testing.T) {
	s := New()
	var in counter
	var ran []Time
	a := NewPollLoop(s, NewCore(s, 0, 0, 1e9), 10, func() (float64, func()) {
		ran = append(ran, s.Now())
		if s.Now() == 900*Nanosecond {
			s.WakeBy(2 * Microsecond) // from the body: this one counts
		}
		return 0, nil
	})
	a.Watch(&in)
	work := false
	var b *PollLoop
	b = NewPollLoop(s, NewCore(s, 1, 0, 1e9), 10, func() (float64, func()) {
		if !work {
			return 0, nil
		}
		work = false
		return 100, func() { // at 150 ns, after a's body at 100 ns
			s.WakeBy(300 * Nanosecond)
			b.Stop()
		}
	})
	a.Start()
	b.Start()
	produce := func() { in.n++ }
	s.At(50*Nanosecond, func() { work = true })
	s.At(100*Nanosecond, produce)
	s.At(500*Nanosecond, produce)
	s.At(600*Nanosecond, func() { s.WakeBy(800 * Nanosecond) })
	s.At(900*Nanosecond, produce)
	s.Run(Microsecond)
	s.WakeBy(1200 * Nanosecond)
	s.Run(3 * Microsecond)
	want := []Time{0, 100 * Nanosecond, 500 * Nanosecond, 900 * Nanosecond, 2 * Microsecond}
	if fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Errorf("a's body ran at %v, want %v: only what was produced and the body's own deadline", ran, want)
	}
}

// A loop watches up to two inputs, as Figure 7's per-port core polls its
// NIC and its OBQ: producing into either runs its body, other events do
// not, and declaring them allocates nothing. A third input and a nil one
// are refused.
func TestPollLoopWatchesTwoInputs(t *testing.T) {
	s := New()
	var nic, obq counter
	var ran []Time
	loops := make([]*PollLoop, 3)
	for i := range loops {
		loops[i] = NewPollLoop(s, NewCore(s, i, 0, 1e9), 10, func() (float64, func()) {
			if i == 0 {
				ran = append(ran, s.Now())
			}
			return 0, nil
		})
	}
	next := 0
	if n := testing.AllocsPerRun(1, func() {
		loops[next].Watch(&nic)
		loops[next].Watch(&obq)
		next++
	}); n != 0 {
		t.Errorf("declaring two inputs allocates %v objects, want 0", n)
	}
	if !refused(func() { loops[0].Watch(&counter{}) }) {
		t.Error("a third input was accepted")
	}
	if !refused(func() { loops[2].Watch(nil) }) {
		t.Error("a nil input was accepted")
	}
	loops[0].Start()
	s.At(100*Nanosecond, func() { obq.n++ })
	s.At(300*Nanosecond, func() {})
	s.At(500*Nanosecond, func() { nic.n++ })
	s.Run(Microsecond)
	want := []Time{0, 100 * Nanosecond, 500 * Nanosecond}
	if fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Errorf("the body ran at %v, want %v: at its start and when either input was produced into", ran, want)
	}
}

// Stats counts every step by kind, Processed is the sum of the three
// kinds Run executes, and reading them allocates nothing.
func TestStatsCountsStepsByKind(t *testing.T) {
	s := New()
	c := NewCore(s, 0, 0, 1e9)
	work := false
	loop := NewPollLoop(s, c, 10, func() (float64, func()) {
		if !work {
			return 0, nil
		}
		work = false
		return 100, func() {}
	})
	loop.Start()
	s.At(35*Nanosecond, func() { work = true })
	timer := s.NewTimer(func() {})
	timer.Reset(5 * Nanosecond)
	timer.Reset(25 * Nanosecond)
	s.RunAll()
	// Start's event polls at 0 (idle) and parks; the timer's fire at 5 ns
	// is stale (it was re-armed), changes nothing and leaves the loop
	// parked; one skip accounts for the polls at 10 and 20 ns; the timer
	// fires at 25 ns, so the parked poll at 30 ns runs the body (idle);
	// the event at 35 ns; the parked poll at 40 ns runs the body (busy for
	// 100 ns); its finish at 140 ns runs the commit and the body again
	// (idle), after which nothing is due.
	want := Stats{HeapEvents: 4, Finishes: 1, ParkedRuns: 2, IdleRuns: 3, Skips: 1, PollsSkipped: 2, StaleFires: 1}
	got := s.Stats()
	if got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	if s.Processed() != got.HeapEvents+got.Finishes+got.ParkedRuns {
		t.Errorf("Processed = %d, want heap events + finishes + parked body runs = %d",
			s.Processed(), got.HeapEvents+got.Finishes+got.ParkedRuns)
	}
	if n := testing.AllocsPerRun(100, func() { got = s.Stats() }); n != 0 {
		t.Errorf("Stats allocates %v objects", n)
	}
}

// workLoops starts n poll loops, lazy or naive, each busy while it has
// work and idle without, on two clocks whose polls and finishes share
// instants and with costs that keep the loops in step on some of them and
// not on others. Every loop starts with work; events hand all of them more
// now and then. With restart, each lazy loop is started twice more: at
// once, and from an event while it runs. It runs for a microsecond and
// returns the busy iterations and commits in the order they ran, every
// loop's Iterations, and the most loops the lazy run had busy at once.
func workLoops(lazy bool, n int, restart bool) (trace []rec, iters []uint64, maxBusy int) {
	s := New()
	work := make([]int, n)
	loops := make([]poller, n)
	for i := range loops {
		c := NewCore(s, i, 0, []float64{1e9, 2e9}[i%2])
		cycles := float64(10 + 10*(i%3))
		work[i] = 3
		body := func() (float64, func()) {
			if work[i] == 0 {
				return 0, nil
			}
			work[i]--
			trace = append(trace, rec{s.Now(), "busy", i, 0, 0})
			maxBusy = max(maxBusy, len(s.busy)+1)
			return cycles, func() { trace = append(trace, rec{s.Now(), "commit", i, 0, 0}) }
		}
		loops[i] = &naiveLoop{sim: s, core: c, idleCycles: 10, body: body}
		if lazy {
			loops[i] = NewPollLoop(s, c, 10, body)
		}
		loops[i].Start()
		if lazy && restart {
			loops[i].Start()
			s.At(100*Nanosecond, loops[i].Start)
		}
	}
	for _, at := range []Time{150, 300, 310, 600} {
		s.At(at*Nanosecond, func() {
			for i := range work {
				work[i] += 2
			}
		})
	}
	s.Run(Microsecond)
	for _, l := range loops {
		iters = append(iters, l.Iterations())
	}
	return trace, iters, maxBusy
}

// sameWork requires two workLoops runs to have the same trace and the same
// Iterations of every loop.
func sameWork(t *testing.T, want, got []rec, wantIters, gotIters []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d busy iterations and commits, naiveLoop has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: %v, naiveLoop has %v", i, got[i], want[i])
		}
	}
	for i := range wantIters {
		if gotIters[i] != wantIters[i] {
			t.Errorf("loop %d: %d iterations, naiveLoop has %d", i, gotIters[i], wantIters[i])
		}
	}
}

// More busy loops than the busy set holds inline: every one of them is in
// the busy set at once, and their busy iterations, commits and Iterations
// are naiveLoop's.
func TestPollLoopBusySetOverflow(t *testing.T) {
	const n = inlineSlots + 3
	want, wantIters, _ := workLoops(false, n, false)
	got, gotIters, maxBusy := workLoops(true, n, false)
	sameWork(t, want, got, wantIters, gotIters)
	if maxBusy != n {
		t.Errorf("at most %d loops busy at once, want all %d", maxBusy, n)
	}
}

// More idle loops than the parked set holds inline: every one of them is
// parked, none on the heap, and all of them stay exact.
func TestPollLoopParkedSetOverflow(t *testing.T) {
	const n = inlineSlots + 3
	s := New()
	loops := make([]*PollLoop, n)
	for i := range loops {
		loops[i] = NewPollLoop(s, NewCore(s, i, 0, 1e9), 10, func() (float64, func()) { return 0, nil })
		loops[i].Start()
	}
	s.Run(Microsecond)
	for i, l := range loops {
		if l.Iterations() != 101 {
			t.Errorf("loop %d: %d iterations, want 101", i, l.Iterations())
		}
	}
	if len(s.events) != 0 || len(s.parked) != n {
		t.Errorf("%d idle loops: %d parked, %d busy, %d heap events", n, len(s.parked), len(s.busy), len(s.events))
	}
	if s.Pending() != n {
		t.Errorf("pending %d, want %d", s.Pending(), n)
	}
}

// A loop runs one chain of iterations however often it is started: a
// second Start, at once or from an event later, changes nothing, and the
// iterations and commits are those of naiveLoop started once.
func TestPollLoopStartTwiceRunsOneChain(t *testing.T) {
	want, wantIters, _ := workLoops(false, 4, false)
	got, gotIters, _ := workLoops(true, 4, true)
	sameWork(t, want, got, wantIters, gotIters)
}

// NewPollLoop allocates the loop and nothing else while the sets' inline
// room lasts.
func TestNewPollLoopAllocatesOnlyTheLoop(t *testing.T) {
	s := New()
	cores := make([]*Core, inlineSlots)
	for i := range cores {
		cores[i] = NewCore(s, i, 0, 1e9)
	}
	body := func() (float64, func()) { return 0, nil }
	kept := make([]*PollLoop, 0, inlineSlots)
	// AllocsPerRun makes one loop more than it counts: inlineSlots-1 in all,
	// each on a core of its own.
	if n := testing.AllocsPerRun(inlineSlots-2, func() { kept = append(kept, NewPollLoop(s, cores[len(kept)], 10, body)) }); n != 1 {
		t.Errorf("NewPollLoop allocates %v objects, want 1", n)
	}
}

// refused reports whether f panics.
func refused(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// A poll loop whose idle poll takes no time would poll forever at one
// instant: NewPollLoop refuses a period that is not positive, also one that
// the core's clock rounds to 0 ps, and Run never meets one.
func TestNewPollLoopRefusesNoPeriod(t *testing.T) {
	s := New()
	idle := func() (float64, func()) { return 0, nil }
	for _, tc := range []struct {
		hz, cycles float64
	}{{1e9, 0}, {1e9, -5}, {3e12, 1}} {
		c := NewCore(s, 0, 0, tc.hz)
		if !refused(func() { NewPollLoop(s, c, tc.cycles, idle).Start() }) {
			t.Errorf("an idle poll of %v cycles at %v Hz (%v ps) was accepted", tc.cycles, tc.hz, int64(c.CycleTime(tc.cycles)))
		}
	}
	done := make(chan struct{})
	go func() {
		s.Run(10 * Nanosecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run(10ns) did not return")
	}
}

// A core runs one poll loop: NewPollLoop refuses a second one on it, and
// the first one keeps the core's books.
func TestSecondLoopOnCoreRefused(t *testing.T) {
	s := New()
	c := NewCore(s, 0, 0, 1e9)
	busy := func() (float64, func()) { return 10, nil }
	first := NewPollLoop(s, c, 10, busy)
	if !refused(func() { NewPollLoop(s, c, 10, busy) }) {
		t.Fatal("a second loop on one core was accepted")
	}
	first.Start()
	s.Run(100 * Nanosecond)
	if c.FreeAt() != 110*Nanosecond || first.Iterations() != 11 {
		t.Errorf("core free at %v after %d iterations, want 110ns after 11", c.FreeAt(), first.Iterations())
	}
}

// lazyCount is a Lazy that counts its catch-ups.
type lazyCount struct{ n int }

func (l *lazyCount) CatchUp() { l.n++ }

// AddLazy takes any number of registrations, and every one is caught up at
// the end of every Run.
func TestAddLazyTakesAnyNumber(t *testing.T) {
	s := New()
	ls := make([]lazyCount, 2*inlineSlots+1)
	for i := range ls {
		s.AddLazy(&ls[i])
	}
	s.Run(Microsecond)
	s.Run(2 * Microsecond)
	for i, l := range ls {
		if l.n != 2 {
			t.Errorf("registration %d caught up %d times over two Runs, want 2", i, l.n)
		}
	}
}

func TestPollLoopStop(t *testing.T) {
	s := New()
	c := NewCore(s, 0, 0, 1e9)
	n := 0
	var loop *PollLoop
	loop = NewPollLoop(s, c, 10, func() (float64, func()) {
		n++
		if n == 3 {
			loop.Stop()
		}
		return 10, nil
	})
	loop.Start()
	s.RunAll()
	if n != 3 {
		t.Errorf("loop ran %d iterations after Stop", n)
	}
}

func TestPostRunsAtNextSafePoint(t *testing.T) {
	s := New()
	var order []string
	s.At(10, func() { order = append(order, "ev10") })
	s.At(30, func() { order = append(order, "ev30") })
	s.Post(func() { order = append(order, "post-before") })
	if !s.postPending.Load() {
		t.Error("PostedPending false with work queued")
	}
	s.Run(20)
	// The entry drain runs the post before any event.
	want := []string{"post-before", "ev10"}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if s.postPending.Load() {
		t.Error("PostedPending true after drain")
	}
	// A post from inside an event runs before the next event executes.
	s.At(40, func() {
		s.Post(func() { order = append(order, "post-mid") })
		order = append(order, "ev40")
	})
	s.Run(50)
	if got := order[len(order)-3:]; got[0] != "ev30" || got[1] != "ev40" || got[2] != "post-mid" {
		t.Fatalf("tail order = %v", got)
	}
}

func TestPostFromAnotherGoroutine(t *testing.T) {
	s := New()
	// A self-perpetuating timer keeps the queue non-empty, mirroring the
	// transfer layer's poll loops.
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		s.After(Microsecond, tick)
	}
	s.After(0, tick)
	// One slice before the goroutine starts: a Post that lands before the
	// first Run would execute ahead of the queued tick.
	s.Run(s.Now() + 10*Microsecond)

	done := make(chan int, 1)
	go func() {
		got := make(chan int, 1)
		s.Post(func() { got <- ticks })
		done <- <-got
	}()
	// Pump until the posted op has executed and replied.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.Run(s.Now() + 10*Microsecond)
		select {
		case seen := <-done:
			if seen == 0 {
				t.Fatal("posted op observed zero ticks")
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("posted op never ran while pumping")
		}
	}
}

func TestPostNilIgnored(t *testing.T) {
	s := New()
	s.Post(nil)
	if s.postPending.Load() {
		t.Error("nil post marked pending")
	}
	s.Run(10)
}
