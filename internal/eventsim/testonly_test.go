package eventsim

import (
	"time"
)

// Only this package's tests read what follows; the rest of the module
// has no use for it.

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
