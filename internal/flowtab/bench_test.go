package flowtab

import (
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

// The hit-path benchmarks are the acceptance gate for the flow table:
// 0 B/op, 0 allocs/op on lookup and insert-of-existing, at a realistic
// working-set size.

func benchTable(b *testing.B, entries int) (*Table[uint64, uint64], *fakeClock) {
	b.Helper()
	clk := &fakeClock{}
	tab, err := New(Config[uint64, uint64]{
		Hash:           Mix64,
		InitialEntries: entries,
		MaxEntries:     entries,
		TTL:            eventsim.Second,
		Clock:          clk.Now,
	})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < uint64(entries); k++ {
		if _, _, err := tab.Insert(k); err != nil {
			b.Fatal(err)
		}
	}
	return tab, clk
}

func BenchmarkFlowtabLookupHit(b *testing.B) {
	tab, clk := benchTable(b, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.now += eventsim.Nanosecond
		if _, ok := tab.Lookup(uint64(i) & (1<<16 - 1)); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkFlowtabInsertHit(b *testing.B) {
	tab, clk := benchTable(b, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.now += eventsim.Nanosecond
		if _, found, err := tab.Insert(uint64(i) & (1<<16 - 1)); err != nil || !found {
			b.Fatal("miss")
		}
	}
}

func BenchmarkFlowtabChurn(b *testing.B) {
	// Steady-state churn at the capacity cap: a new flow a microsecond,
	// each pressure-evicting one, a hit on a recent flow beside it, and
	// the wheel ticked every quarter TTL, so the clock crosses a granule
	// every few thousand flows.
	tab, clk := benchTable(b, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.now += eventsim.Microsecond
		k := uint64(i) + 1<<16
		tab.Lookup(k - 7)
		if _, _, err := tab.Insert(k); err != nil {
			b.Fatal(err)
		}
		if i%250_000 == 0 {
			tab.Tick()
		}
	}
}

func BenchmarkFlowtabLookupMiss(b *testing.B) {
	tab, clk := benchTable(b, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.now += eventsim.Nanosecond
		if _, ok := tab.Lookup(uint64(i) | 1<<32); ok {
			b.Fatal("hit")
		}
	}
}
