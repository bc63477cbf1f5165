// Package hotpathalloc_neg shows allocation-free annotated code and
// allocation-heavy unannotated code; escapecheck, which owns the hot-path
// allocation rule, may flag neither.
package hotpathalloc_neg

import "fmt"

// Sum is annotated and clean: arithmetic, indexing and struct values
// only.
//
//dhl:hotpath
func Sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

type stats struct{ n, max int }

// Observe is annotated and clean: struct literals of concrete type and
// pointer flow do not allocate per packet.
//
//dhl:hotpath
func Observe(s *stats, x int) {
	if x > s.max {
		*s = stats{n: s.n + 1, max: x}
		return
	}
	s.n++
}

// Report is NOT annotated, so cold-path formatting is fine.
func Report(s *stats) string {
	return fmt.Sprintf("n=%d max=%d", s.n, s.max)
}
