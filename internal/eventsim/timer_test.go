package eventsim

import "testing"

func TestTimerFiresOnce(t *testing.T) {
	sim := New()
	fired := 0
	tm := sim.NewTimer(func() { fired++ })
	if tm.Armed() {
		t.Error("new timer should be stopped")
	}
	tm.Reset(10 * Microsecond)
	if !tm.Armed() || tm.at != 10*Microsecond {
		t.Errorf("armed=%v at=%v", tm.Armed(), tm.at)
	}
	sim.RunAll()
	if fired != 1 {
		t.Errorf("fired %d times", fired)
	}
	if tm.Armed() {
		t.Error("timer still armed after firing")
	}
}

func TestTimerStop(t *testing.T) {
	sim := New()
	fired := 0
	tm := sim.NewTimer(func() { fired++ })
	tm.Reset(10 * Microsecond)
	tm.Stop()
	sim.RunAll()
	if fired != 0 {
		t.Error("stopped timer fired")
	}
}

func TestTimerResetLater(t *testing.T) {
	sim := New()
	var firedAt Time
	tm := sim.NewTimer(func() { firedAt = sim.Now() })
	tm.Reset(10 * Microsecond)
	tm.Reset(25 * Microsecond) // push the deadline out
	sim.RunAll()
	if firedAt != 25*Microsecond {
		t.Errorf("fired at %v, want 25us", firedAt)
	}
}

func TestTimerResetEarlier(t *testing.T) {
	sim := New()
	var firedAt Time
	fired := 0
	tm := sim.NewTimer(func() { fired++; firedAt = sim.Now() })
	tm.Reset(25 * Microsecond)
	tm.Reset(10 * Microsecond) // pull the deadline in
	sim.RunAll()
	if fired != 1 || firedAt != 10*Microsecond {
		t.Errorf("fired %d times at %v, want once at 10us", fired, firedAt)
	}
}

func TestTimerRearmFromCallback(t *testing.T) {
	sim := New()
	var fires []Time
	var tm *Timer
	tm = sim.NewTimer(func() {
		fires = append(fires, sim.Now())
		if len(fires) < 3 {
			tm.Reset(5 * Microsecond)
		}
	})
	tm.Reset(5 * Microsecond)
	sim.RunAll()
	want := []Time{5 * Microsecond, 10 * Microsecond, 15 * Microsecond}
	if len(fires) != len(want) {
		t.Fatalf("fires %v", fires)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Errorf("fire %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

func TestTimerReuseAfterStop(t *testing.T) {
	sim := New()
	fired := 0
	tm := sim.NewTimer(func() { fired++ })
	tm.Reset(5 * Microsecond)
	tm.Stop()
	tm.Reset(8 * Microsecond)
	sim.RunAll()
	if fired != 1 {
		t.Errorf("fired %d times after stop+reset", fired)
	}
}

func TestTimerNegativeDelayFiresNow(t *testing.T) {
	sim := New()
	sim.Run(3 * Microsecond)
	var firedAt Time
	tm := sim.NewTimer(func() { firedAt = sim.Now() })
	tm.Reset(-5)
	sim.RunAll()
	if firedAt != 3*Microsecond {
		t.Errorf("fired at %v, want now (3us)", firedAt)
	}
}

// Stale fires of a timer that is re-armed over and over change nothing, so
// they must not make idle poll loops run their bodies.
func TestTimerStaleFiresDoNotWakePollLoops(t *testing.T) {
	sim := New()
	polls := 0
	loop := NewPollLoop(sim, NewCore(sim, 0, 0, 1e9), 10, func() (float64, func()) {
		polls++
		return 0, nil
	})
	loop.Start()
	fired := 0
	tm := sim.NewTimer(func() { fired++ })
	// Pushed out 1 us at a time, once per slice, without ever firing;
	// every Reset leaves a stale event behind.
	for i := 0; i < 1000; i++ {
		tm.Reset(2 * Microsecond)
		sim.Run(sim.Now() + Microsecond)
	}
	if fired != 0 {
		t.Fatalf("timer fired %d times", fired)
	}
	if loop.Iterations() != 100*1000+1 {
		t.Errorf("iterations = %d", loop.Iterations())
	}
	// One poll per Run entry (the caller may have changed something); none
	// for the 999 stale fires.
	if polls > 1001 {
		t.Errorf("body ran %d times over 1000 slices", polls)
	}
}
