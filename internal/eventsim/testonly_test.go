package eventsim

import (
	"time"
)

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// AtSeq schedules fn, which must not be nil, at t, which must not be in
// the past, in the place seq, drawn earlier by DrawSeq, gives it: it runs
// as it would have, had At scheduled it when seq was drawn. The
// equivalence oracle's chain keeps only its earliest item scheduled so.
func (s *Sim) AtSeq(t Time, seq uint64, fn func()) {
	s.push(t, seq, fn)
}

// Pending reports the number of scheduled-but-unexecuted events. A parked
// idle poll loop counts as one, its next poll, and a busy one as one, its
// iteration's finish.
func (s *Sim) Pending() int { return len(s.events) + s.nParked + s.nBusy }

// Duration converts a simulator Time span back into a time.Duration,
// truncating to nanosecond resolution.
func (t Time) Duration() time.Duration {
	return time.Duration(int64(t)/int64(Nanosecond)) * time.Nanosecond
}

// FromDuration converts a time.Duration into simulator Time.
func FromDuration(d time.Duration) Time {
	return Time(d.Nanoseconds()) * Nanosecond
}
