package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptySeries(t *testing.T) {
	s := NewSeries(0)
	if s.count != 0 || s.Mean() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty series should report zeros")
	}
}

func TestBasicStats(t *testing.T) {
	s := NewSeries(0)
	for _, v := range []float64{5, 1, 9, 3, 7} {
		s.Add(v)
	}
	if s.count != 5 {
		t.Errorf("count %d", s.count)
	}
	if s.Sum() != 25 {
		t.Errorf("sum %v", s.Sum())
	}
	if s.Mean() != 5 {
		t.Errorf("mean %v", s.Mean())
	}
	if s.Max() != 9 {
		t.Errorf("max %v", s.Max())
	}
	if p := s.Percentile(50); p != 5 {
		t.Errorf("p50 %v", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Errorf("p0 %v", p)
	}
	if p := s.Percentile(100); p != 9 {
		t.Errorf("p100 %v", p)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := NewSeries(0)
	s.Add(0)
	s.Add(10)
	if p := s.Percentile(50); p != 5 {
		t.Errorf("interpolated p50 %v", p)
	}
}

// TestPercentileSeesLaterAdds pins the sorted copy Percentile keeps between
// calls to the state of the series: an Add in between is seen, decimation
// included, and asking twice changes nothing.
func TestPercentileSeesLaterAdds(t *testing.T) {
	s := NewSeries(4) // decimates at 8 samples
	for i := 0; i < 20; i++ {
		s.Add(float64(20 - i))
		want := append([]float64(nil), s.samples...)
		sort.Float64s(want)
		for range 2 {
			if s.Percentile(0) != want[0] || s.Percentile(100) != want[len(want)-1] || s.Percentile(50) != (want[(len(want)-1)/2]+want[len(want)/2])/2 {
				t.Fatalf("after %d adds: p0/p50/p100 %v/%v/%v over %v", i+1, s.Percentile(0), s.Percentile(50), s.Percentile(100), want)
			}
		}
	}
}

func TestDecimationKeepsEstimatesSane(t *testing.T) {
	s := NewSeries(512) // reservoir decimates after 1024 samples
	n := 100000
	for i := 0; i < n; i++ {
		s.Add(float64(i))
	}
	if s.count != uint64(n) {
		t.Errorf("count %d", s.count)
	}
	if s.Mean() != float64(n-1)/2 {
		t.Errorf("mean %v", s.Mean())
	}
	// Percentiles remain within a few percent after decimation.
	for _, p := range []float64{10, 50, 90, 99} {
		want := p / 100 * float64(n)
		got := s.Percentile(p)
		if math.Abs(got-want) > 0.05*float64(n) {
			t.Errorf("p%v = %v, want ~%v", p, got, want)
		}
	}
}

// TestQuickPercentileVsSorted property-checks percentile queries against
// exact order statistics while the reservoir is undecimated.
func TestQuickPercentileVsSorted(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 || len(vals) > 500 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		s := NewSeries(1024)
		for _, v := range vals {
			s.Add(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return s.Percentile(0) == sorted[0] && s.Percentile(100) == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
