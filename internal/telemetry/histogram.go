package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

// NumHistBuckets is the fixed bucket count of every Histogram: 27 finite
// exponential buckets spanning 128 ns to ~8.6 s, plus a +Inf catch-all.
// The range covers everything the calibrated models produce, from
// sub-microsecond DMA service times to watchdog-scale stalls, with two
// buckets per octave of headroom on either side.
const NumHistBuckets = 28

// Histogram is a fixed-bucket latency histogram with exponential bounds:
// bucket i counts observations d with BucketBound(i-1) < d <=
// BucketBound(i) nanoseconds, the last bucket catching everything else.
// Recording is lock-free (one bucket add plus count/sum adds) and
// allocation-free; the struct is preallocated inside Registry so the
// `//dhl:hotpath` recording sites never touch the heap.
type Histogram struct {
	buckets [NumHistBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

// BucketBound reports bucket i's inclusive upper bound in nanoseconds
// (128<<i), or +Inf for the final bucket.
func BucketBound(i int) float64 {
	if i >= NumHistBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(128) << uint(i))
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d eventsim.Time) {
	var ns uint64
	if d > 0 {
		ns = uint64(d) / uint64(eventsim.Nanosecond)
	}
	i := 0
	if ns > 128 {
		i = bits.Len64((ns - 1) >> 7)
		if i > NumHistBuckets-1 {
			i = NumHistBuckets - 1
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// Snapshot copies the histogram's current state for cold-path analysis.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNs = h.sumNs.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, suitable for
// JSON encoding and for diffing two scrapes.
type HistogramSnapshot struct {
	// Buckets holds per-bucket counts; bucket i's bound is BucketBound(i).
	Buckets [NumHistBuckets]uint64
	// Count is the total number of observations.
	Count uint64
	// SumNs is the sum of all observed durations in nanoseconds.
	SumNs uint64
}

// MeanNs reports the mean observed duration in nanoseconds (0 when
// empty).
func (s HistogramSnapshot) MeanNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}

// QuantileNs reports an upper bound on the q-quantile (0 <= q <= 1) in
// nanoseconds: the bound of the first bucket whose cumulative count
// reaches q of the total. Bucket-resolution, so at most one octave above
// the true value; +Inf when the quantile lands in the overflow bucket.
func (s HistogramSnapshot) QuantileNs(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	for i, b := range s.Buckets {
		cum += float64(b)
		if cum >= target {
			return BucketBound(i)
		}
	}
	return math.Inf(1)
}

// Delta subtracts prev from s bucket-by-bucket, yielding the activity
// between two scrapes. Counters are monotonic, so a negative delta means
// the snapshots came from different registries; such underflows clamp to
// zero.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	var d HistogramSnapshot
	for i := range s.Buckets {
		d.Buckets[i] = subClamp(s.Buckets[i], prev.Buckets[i])
	}
	d.Count = subClamp(s.Count, prev.Count)
	d.SumNs = subClamp(s.SumNs, prev.SumNs)
	return d
}

func subClamp(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
