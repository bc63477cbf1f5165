package dhl_test

import (
	"io"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/harness"
)

// BenchmarkExperiments regenerates every row of the evaluation
// (internal/harness's experiment table: Table I, Figures 4/6/7, Tables
// V–VII, the ablations and T2–T5) with its -quick windows and discards
// what it prints: `go test -bench Experiments -benchtime 1x .` is what
// regenerating the paper costs this Go code, row by row. The numbers
// themselves come from `dhl-bench`, which prints the same rows.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range harness.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := harness.Regenerate(io.Discard, true, e.Name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
