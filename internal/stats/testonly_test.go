package stats

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// Min reports the smallest observation, or 0 with no observations.
func (s *Series) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// MeanRate reports the average rate over buckets [lo, hi).
func (ts *TimeSeries) MeanRate(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(ts.buckets) {
		hi = len(ts.buckets)
	}
	if lo >= hi {
		return 0
	}
	var sum float64
	for _, w := range ts.buckets[lo:hi] {
		sum += w
	}
	return sum / (float64(hi-lo) * ts.width)
}
