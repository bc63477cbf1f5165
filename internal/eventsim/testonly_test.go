package eventsim

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// Pending reports the number of scheduled-but-unexecuted events. A parked
// idle poll loop counts as one, its next poll, and a busy one as one, its
// iteration's finish.
func (s *Sim) Pending() int { return len(s.events) + len(s.parked) + len(s.busy) }
