package main

import (
	"math"
	"sort"
)

// summary is what the bench keeps of a set of repeated measurements:
// the median, the quartiles around it and how many values went in.
type summary struct {
	Median float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"reps"`
	// Values holds the measurements themselves, in the order taken.
	Values []float64 `json:"values,omitempty"`
}

// summarize computes the median and quartiles of vals. The quartiles
// follow Python's statistics.quantiles(vals, n=4) (the "exclusive"
// method), the rule the acceptance check applies to the per-run values,
// so a spread printed here is the spread it will see.
func summarize(vals []float64) summary {
	n := len(vals)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	out := summary{N: n, Median: s[n/2], Values: vals}
	if n%2 == 0 {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	out.Q1, out.Q3 = out.Median, out.Median
	if n >= 2 {
		out.Q1, out.Q3 = quantile(s, 1), quantile(s, 3)
	}
	return out
}

// quantile returns the i-th quartile cut point of sorted (len >= 2).
func quantile(sorted []float64, i int) float64 {
	n := len(sorted)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// spread is the interquartile range as a share of the median, the
// quantity a metric's regression bound is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
