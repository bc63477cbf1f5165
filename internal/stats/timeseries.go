package stats

// TimeSeries accumulates weighted observations into fixed-width time
// buckets, producing rate-over-time curves: the failure-recovery harness
// feeds it delivered bytes keyed by virtual time and reads back a
// goodput curve to locate the fault dip and measure time-to-recovery.
//
// Times are float64 seconds (callers convert from the simulation's
// picosecond clock); observations before time zero or at/after the
// horizon are counted as spilled rather than silently folded into the
// edge buckets.
type TimeSeries struct {
	width   float64
	buckets []float64
	spilled uint64
}

// NewTimeSeries creates a time series covering [0, horizon) seconds with
// n equal buckets. Invalid shapes (n <= 0, horizon <= 0) yield a single
// bucket covering the horizon (or 1s) so callers never divide by zero.
func NewTimeSeries(horizon float64, n int) *TimeSeries {
	if horizon <= 0 {
		horizon = 1
	}
	if n <= 0 {
		n = 1
	}
	return &TimeSeries{width: horizon / float64(n), buckets: make([]float64, n)}
}

// Add accumulates weight w into the bucket containing time t. Times
// outside [0, horizon) — including NaN and the infinities — count as
// spilled. The range check runs on the float64 before the index
// conversion: a time far past the horizon (or NaN) converted to int is
// implementation-defined and can go negative, which would otherwise slip
// past a post-conversion bounds check and panic.
func (ts *TimeSeries) Add(t, w float64) {
	if !(t >= 0) || t >= ts.width*float64(len(ts.buckets)) {
		ts.spilled++
		return
	}
	i := int(t / ts.width)
	if i >= len(ts.buckets) {
		// Rounding at the exact horizon boundary: t passed the float
		// comparison but the division landed on len. Clamp to the last
		// bucket — the observation is inside the covered range.
		i = len(ts.buckets) - 1
	}
	ts.buckets[i] += w
}

// BucketWidth reports the bucket width in seconds.
func (ts *TimeSeries) BucketWidth() float64 { return ts.width }

// Rate reports bucket i's accumulated weight divided by the bucket
// width — bytes in, bytes-per-second out.
func (ts *TimeSeries) Rate(i int) float64 {
	if i < 0 || i >= len(ts.buckets) {
		return 0
	}
	return ts.buckets[i] / ts.width
}
