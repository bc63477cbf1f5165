package lpm

import (
	"math/rand"
	"testing"
)

// BenchmarkLookup measures the DIR-24-8 lookup cost — the operation
// Table I prices at 60 cycles on the paper's testbed.
func BenchmarkLookup(b *testing.B) {
	tbl := New(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		depth := uint8(8 + rng.Intn(17))
		if err := tbl.Add(rng.Uint32()&mask(depth), depth, uint16(i%1000)); err != nil {
			b.Fatal(err)
		}
	}
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tbl.Lookup(addrs[i&4095])
	}
}
