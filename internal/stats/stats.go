// Package stats provides small streaming-statistics helpers used by the
// traffic sinks and the experiment harness: mean/max accumulation and
// percentile estimation over bounded sample reservoirs.
package stats

import (
	"math"
	"sort"
)

// Series accumulates scalar observations and answers summary queries.
//
// All observations feed the running mean and max. Percentile queries are
// answered from a bounded reservoir: the first Cap observations are kept
// exactly; afterwards every k-th observation is kept so the reservoir stays
// within 2*Cap while remaining deterministic (no randomness, so simulation
// runs stay reproducible).
type Series struct {
	cap     int
	count   uint64
	sum     float64
	max     float64
	samples []float64
	stride  uint64

	// sorted is samples in order as of sortedAt observations: callers ask
	// for several percentiles of one finished run.
	sorted   []float64
	sortedAt uint64
}

// NewSeries creates a Series keeping at most ~2*cap percentile samples.
// A cap of 0 selects a default of 65536.
func NewSeries(cap int) *Series {
	if cap <= 0 {
		cap = 65536
	}
	return &Series{cap: cap, max: math.Inf(-1), stride: 1}
}

// Add records one observation.
func (s *Series) Add(v float64) {
	s.count++
	s.sum += v
	if v > s.max {
		s.max = v
	}
	if s.count%s.stride == 0 {
		s.samples = append(s.samples, v)
		if len(s.samples) >= 2*s.cap {
			// Decimate: keep every other sample and double the stride.
			kept := s.samples[:0]
			for i := 0; i < len(s.samples); i += 2 {
				kept = append(kept, s.samples[i])
			}
			s.samples = kept
			s.stride *= 2
		}
	}
}

// Mean reports the arithmetic mean, or 0 with no observations.
func (s *Series) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Max reports the largest observation, or 0 with no observations.
func (s *Series) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Percentile reports the p-th percentile (0 <= p <= 100) estimated from the
// sample reservoir, or 0 with no observations.
func (s *Series) Percentile(p float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	if s.sortedAt != s.count {
		s.sorted = append(s.sorted[:0], s.samples...)
		sort.Float64s(s.sorted)
		s.sortedAt = s.count
	}
	sorted := s.sorted
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
