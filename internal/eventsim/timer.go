package eventsim

// Timer is a reusable, cancellable one-shot deadline on the simulation
// clock: the autotuner's sampling tick.
//
// The event heap has no removal operation (events are popped in order),
// so Stop and Reset work by validation at fire time: each
// scheduled event checks whether the timer is still armed for a deadline
// that has arrived before invoking the callback. Stale events from a
// stopped or re-armed timer fire as cheap no-ops. After construction the
// timer is allocation-free: events are values in the sim's heap and the
// fire thunk is bound once.
type Timer struct {
	sim    *Sim
	fn     func()
	at     Time // armed deadline, valid while armed
	armed  bool
	fireFn func()
}

// NewTimer creates a stopped timer that invokes fn when it fires.
func (s *Sim) NewTimer(fn func()) *Timer {
	t := &Timer{sim: s, fn: fn}
	t.fireFn = t.fire
	return t
}

// Reset arms the timer to fire d from now, replacing any earlier
// deadline. Resetting an armed timer is cheap but not free — it books
// one event per call — so periodic users should re-arm from the
// callback rather than on every observation.
func (t *Timer) Reset(d Time) {
	if d < 0 {
		d = 0
	}
	t.at = t.sim.Now() + d
	t.armed = true
	t.sim.At(t.at, t.fireFn)
}

// Stop disarms the timer. A deadline that already passed but whose
// callback has not yet run no longer fires.
func (t *Timer) Stop() { t.armed = false }

func (t *Timer) fire() {
	// A stale event: the timer was stopped, or was re-armed for a later
	// deadline (whose own event will arrive in due course).
	if !t.armed || t.sim.Now() < t.at {
		// Nothing happened: take back the mark Run put on this event, or
		// a timer that is re-armed often would keep every idle poll loop
		// polling.
		t.sim.executed--
		t.sim.stats.StaleFires++
		return
	}
	t.armed = false
	t.fn()
}
