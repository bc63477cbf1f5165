package stats

import (
	"math"
	"testing"
)

func TestTimeSeriesBucketing(t *testing.T) {
	ts := NewTimeSeries(10, 10) // 10 buckets of 1s
	ts.Add(0, 100)
	ts.Add(0.5, 100)
	ts.Add(1.0, 50)
	ts.Add(9.999, 25)
	if got := ts.buckets[0]; got != 200 {
		t.Errorf("bucket 0 = %v, want 200", got)
	}
	if got := ts.buckets[1]; got != 50 {
		t.Errorf("bucket 1 = %v, want 50", got)
	}
	if got := ts.buckets[9]; got != 25 {
		t.Errorf("bucket 9 = %v, want 25", got)
	}
	if ts.spilled != 0 {
		t.Errorf("spilled %d", ts.spilled)
	}
}

func TestTimeSeriesSpill(t *testing.T) {
	ts := NewTimeSeries(1, 4)
	ts.Add(-0.1, 1)
	ts.Add(1.0, 1) // horizon is exclusive
	ts.Add(5, 1)
	if ts.spilled != 3 {
		t.Errorf("spilled %d, want 3", ts.spilled)
	}
	for i, w := range ts.buckets {
		if w != 0 {
			t.Errorf("bucket %d = %v, want 0", i, w)
		}
	}
}

func TestTimeSeriesRates(t *testing.T) {
	ts := NewTimeSeries(2, 4) // 0.5s buckets
	ts.Add(0.1, 50)
	ts.Add(0.6, 100)
	ts.Add(1.1, 200)
	ts.Add(1.6, 400)
	if got := ts.Rate(1); got != 200 {
		t.Errorf("rate(1) = %v, want 200", got)
	}
	if got := ts.Rate(-1); got != 0 {
		t.Errorf("rate(-1) = %v", got)
	}
	if got := ts.Rate(4); got != 0 {
		t.Errorf("rate(4) = %v", got)
	}
}

// TestTimeSeriesHorizonWrap pins the Add range check to run on the
// float64 before any int conversion: a time astronomically past the
// horizon (or NaN) converted to int is implementation-defined — on amd64
// it becomes the minimum int64 — and a post-conversion bounds check would
// accept the negative index and panic.
func TestTimeSeriesHorizonWrap(t *testing.T) {
	ts := NewTimeSeries(10, 10)
	for _, tt := range []float64{1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), -1e300} {
		ts.Add(tt, 1) // must not panic
	}
	if got := ts.spilled; got != 6 {
		t.Errorf("spilled = %d, want 6", got)
	}
	for i, w := range ts.buckets {
		if w != 0 {
			t.Errorf("bucket %d = %v, want 0", i, w)
		}
	}
}

// TestTimeSeriesBoundaryRounding exercises the clamp branch: a time just
// under the horizon whose division rounds up to len lands in the last
// bucket, not in spilled.
func TestTimeSeriesBoundaryRounding(t *testing.T) {
	// width = 0.7/7 = 0.1 is not exactly representable; the largest
	// double below the horizon can divide to exactly len(buckets).
	ts := NewTimeSeries(0.7, 7)
	horizon := ts.BucketWidth() * 7
	under := math.Nextafter(horizon, 0)
	ts.Add(under, 3)
	if ts.spilled != 0 {
		t.Fatalf("spilled = %d, want 0 (t=%v < horizon=%v)", ts.spilled, under, horizon)
	}
	if got := ts.buckets[6]; got != 3 {
		t.Errorf("last bucket = %v, want 3", got)
	}
	ts.Add(horizon, 1) // exactly at the horizon: spilled
	if ts.spilled != 1 {
		t.Errorf("spilled = %d, want 1", ts.spilled)
	}
}

// TestTimeSeriesSpilledEdges covers spilled accounting mixed with in-range
// adds, at both edges of the horizon and for NaN.
func TestTimeSeriesSpilledEdges(t *testing.T) {
	ts := NewTimeSeries(4, 4)
	ts.Add(0.5, 10)
	ts.Add(-0.0001, 1)
	ts.Add(4, 1)
	ts.Add(math.NaN(), 1)
	if got := ts.spilled; got != 3 {
		t.Errorf("spilled = %d, want 3", got)
	}
	if got := ts.buckets[0]; got != 10 {
		t.Errorf("bucket 0 = %v, want 10", got)
	}
}

func TestTimeSeriesDegenerateShape(t *testing.T) {
	ts := NewTimeSeries(0, 0)
	ts.Add(0.5, 10)
	if got := ts.Rate(0); got != 10 {
		t.Errorf("degenerate rate = %v, want 10", got)
	}
}
