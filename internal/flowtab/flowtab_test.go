package flowtab

import (
	"errors"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// fakeClock is a settable virtual clock standing in for Sim.Now.
type fakeClock struct{ now eventsim.Time }

func (c *fakeClock) Now() eventsim.Time { return c.now }

func newTable(t *testing.T, cfg Config[uint64, uint64]) *Table[uint64, uint64] {
	t.Helper()
	if cfg.Hash == nil {
		cfg.Hash = Mix64
	}
	tab, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tab
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config[uint64, uint64]{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("missing Hash: got %v, want ErrBadConfig", err)
	}
	if _, err := New(Config[uint64, uint64]{Hash: Mix64, TTL: eventsim.Second}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("TTL without Clock: got %v, want ErrBadConfig", err)
	}
	if _, err := New(Config[uint64, uint64]{Hash: Mix64, TTL: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative TTL: got %v, want ErrBadConfig", err)
	}
	if _, err := New(Config[uint64, uint64]{Hash: Mix64, MemBudgetBytes: 8}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("absurd budget: got %v, want ErrBadConfig", err)
	}
}

func TestInsertLookupDelete(t *testing.T) {
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: 8})
	for k := uint64(0); k < 100; k++ {
		v, found, err := tab.Insert(k)
		if err != nil || found {
			t.Fatalf("Insert(%d) = found=%v err=%v", k, found, err)
		}
		*v = k * 10
	}
	if tab.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tab.Len())
	}
	for k := uint64(0); k < 100; k++ {
		v, ok := tab.Lookup(k)
		if !ok || *v != k*10 {
			t.Fatalf("Lookup(%d) = %v ok=%v, want %d", k, v, ok, k*10)
		}
	}
	if _, ok := tab.Lookup(1000); ok {
		t.Fatal("Lookup(1000) found a missing key")
	}
	// Insert of an existing key finds it.
	v, found, err := tab.Insert(7)
	if err != nil || !found || *v != 70 {
		t.Fatalf("re-Insert(7) = %v found=%v err=%v", *v, found, err)
	}
	// Delete half, verify the rest still resolve (backshift correctness).
	for k := uint64(0); k < 100; k += 2 {
		if !tab.Delete(k) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	if tab.Delete(2) {
		t.Fatal("double Delete(2) succeeded")
	}
	if tab.Len() != 50 {
		t.Fatalf("Len = %d, want 50", tab.Len())
	}
	for k := uint64(1); k < 100; k += 2 {
		if v, ok := tab.Lookup(k); !ok || *v != k*10 {
			t.Fatalf("post-delete Lookup(%d) broken", k)
		}
	}
	for k := uint64(0); k < 100; k += 2 {
		if _, ok := tab.Lookup(k); ok {
			t.Fatalf("deleted key %d still resolves", k)
		}
	}
}

func TestGrowthKeepsEntriesAndCountsRehashes(t *testing.T) {
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: 4})
	const n = 10000
	for k := uint64(0); k < n; k++ {
		v, _, err := tab.Insert(k)
		if err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
		*v = k
		// Interleave lookups of earlier keys so the drain of the old
		// index is exercised mid-migration.
		if probe := k / 2; probe < k {
			if got, ok := tab.Lookup(probe); !ok || *got != probe {
				t.Fatalf("mid-growth Lookup(%d) broken at k=%d", probe, k)
			}
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	st := tab.TabStats()
	if st.Rehashes == 0 {
		t.Fatal("no rehashes recorded growing 4 -> 10000")
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := tab.Lookup(k); !ok || *v != k {
			t.Fatalf("post-growth Lookup(%d) broken", k)
		}
	}
}

func TestDeleteDuringMigration(t *testing.T) {
	// Force an in-progress migration, then delete keys that still live
	// in the old index: they must tombstone (not backshift) so the
	// migration cursor cannot orphan survivors.
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: 4})
	const n = 512
	for k := uint64(0); k < n; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	// The last growth left oldIdx draining; delete and re-check everything.
	for k := uint64(0); k < n; k += 3 {
		if !tab.Delete(k) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	for k := uint64(0); k < n; k++ {
		_, ok := tab.Lookup(k)
		if want := k%3 != 0; ok != want {
			t.Fatalf("Lookup(%d) = %v, want %v", k, ok, want)
		}
	}
}

// TestDeletedKeyStaysGoneWhileIndexDrains: a bucket the migration cursor
// has moved must not still lead to its entry. Key 0 is the case a freed
// slot matches, its key being zeroed.
func TestDeletedKeyStaysGoneWhileIndexDrains(t *testing.T) {
	clk := &fakeClock{}
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: 16, TTL: eventsim.Second, Clock: clk.Now})
	// The 17th insert doubles the table; the 18th moves all 32 buckets of
	// the old index, which stays until the next insert releases it.
	for k := uint64(0); k < 18; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if tab.oldIdx == nil {
		t.Fatal("no index left draining")
	}
	if !tab.Delete(0) {
		t.Fatal("Delete(0) missed")
	}
	if _, ok := tab.Lookup(0); ok {
		t.Fatal("deleted key 0 found through the draining index")
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := &fakeClock{}
	var evicted []uint64
	tab := newTable(t, Config[uint64, uint64]{
		InitialEntries: 8,
		TTL:            eventsim.Second,
		WheelSlots:     16,
		Clock:          clk.Now,
		OnEvict:        func(k uint64, _ *uint64) { evicted = append(evicted, k) },
	})
	for k := uint64(0); k < 10; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	// Keep flow 3 alive by touching it as time passes.
	clk.now = eventsim.Second / 2
	if _, ok := tab.Lookup(3); !ok {
		t.Fatal("flow 3 vanished early")
	}
	if n := tab.Tick(); n != 0 {
		t.Fatalf("Tick evicted %d before any deadline", n)
	}
	clk.now = eventsim.Second + eventsim.Second/4
	n := tab.Tick()
	if n != 9 {
		t.Fatalf("Tick evicted %d, want 9 (all but the touched flow)", n)
	}
	for _, k := range evicted {
		if k == 3 {
			t.Fatal("touched flow 3 was evicted")
		}
	}
	if len(evicted) != 9 {
		t.Fatalf("OnEvict saw %d evictions, want 9", len(evicted))
	}
	if st := tab.TabStats(); st.EvictedIdle != 9 {
		t.Fatalf("EvictedIdle = %d, want 9", st.EvictedIdle)
	}
	// Flow 3 expires a TTL after its touch.
	clk.now = eventsim.Second/2 + eventsim.Second + eventsim.Second/4
	if n := tab.Tick(); n != 1 {
		t.Fatalf("second Tick evicted %d, want 1", n)
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d after full expiry", tab.Len())
	}
}

func TestTickAfterLongIdleIsBounded(t *testing.T) {
	clk := &fakeClock{}
	tab := newTable(t, Config[uint64, uint64]{
		InitialEntries: 8, TTL: eventsim.Millisecond, WheelSlots: 8, Clock: clk.Now,
	})
	for k := uint64(0); k < 5; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	// A huge idle gap (hours of virtual time, millions of granules) must
	// still evict everything in one capped lap.
	clk.now = eventsim.Time(3600) * eventsim.Second
	if n := tab.Tick(); n != 5 {
		t.Fatalf("Tick after long idle evicted %d, want 5", n)
	}
}

func TestMemoryBudgetPressureEviction(t *testing.T) {
	clk := &fakeClock{}
	// Budget sized to hold a few hundred entries at most.
	const budget = 16 << 10
	tab := newTable(t, Config[uint64, uint64]{
		InitialEntries: 8,
		MemBudgetBytes: budget,
		TTL:            eventsim.Second,
		WheelSlots:     16,
		Clock:          clk.Now,
	})
	for k := uint64(0); k < 100000; k++ {
		clk.now += eventsim.Microsecond
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatalf("Insert(%d) with a wheel should pressure-evict, got %v", k, err)
		}
		if mb := tab.MemBytes(); mb > budget {
			t.Fatalf("MemBytes %d exceeded budget %d at k=%d", mb, budget, k)
		}
	}
	st := tab.TabStats()
	if st.EvictedPressure == 0 {
		t.Fatal("no pressure evictions under a tight budget")
	}
	if st.Entries == 0 || st.Entries > uint64(len(tab.slab)) {
		t.Fatalf("implausible live count %d (cap %d)", st.Entries, len(tab.slab))
	}
	// The most recent key must have survived (oldest-first victims).
	if _, ok := tab.Lookup(99999); !ok {
		t.Fatal("newest flow was evicted instead of the oldest")
	}
}

func TestTableFullWithoutWheel(t *testing.T) {
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: 8, MaxEntries: 8})
	var full int
	for k := uint64(0); k < 20; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			if !errors.Is(err, ErrTableFull) {
				t.Fatalf("Insert(%d): %v", k, err)
			}
			full++
		}
	}
	if full != 12 {
		t.Fatalf("got %d ErrTableFull, want 12", full)
	}
	if st := tab.TabStats(); st.FullDrops != 12 {
		t.Fatalf("FullDrops = %d, want 12", st.FullDrops)
	}
	// Deleting makes room again.
	tab.Delete(0)
	if _, _, err := tab.Insert(100); err != nil {
		t.Fatalf("Insert after Delete: %v", err)
	}
}

func TestRange(t *testing.T) {
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: 8})
	want := map[uint64]uint64{}
	for k := uint64(0); k < 50; k++ {
		v, _, _ := tab.Insert(k)
		*v = k + 1
		want[k] = k + 1
	}
	tab.Delete(10)
	delete(want, 10)
	got := map[uint64]uint64{}
	tab.Range(func(k uint64, v *uint64) bool {
		got[k] = *v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range saw %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
}

func TestHashFiveTupleSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		ft := eth.FiveTuple{
			Src:     eth.IPv4{10, 0, byte(i >> 8), byte(i)},
			Dst:     eth.IPv4{192, 168, 0, 1},
			SrcPort: uint16(i),
			DstPort: 80,
			Proto:   eth.ProtoUDP,
		}
		seen[HashFiveTuple(ft)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("1000 tuples hashed to %d distinct values", len(seen))
	}
}

func TestRegisterGauges(t *testing.T) {
	tel := telemetry.New(0)
	tab := newTable(t, Config[uint64, uint64]{Name: "unit", InitialEntries: 8})
	RegisterGauges(tel, tab)
	for k := uint64(0); k < 5; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	snap := tel.Snapshot()
	found := map[string]float64{}
	for _, g := range snap.Gauges {
		if g.Labels == `table="unit"` || g.Labels == `table="unit",reason="idle"` {
			found[g.Name] = g.Value
		}
	}
	if found["dhl_flowtab_entries"] != 5 {
		t.Fatalf("dhl_flowtab_entries = %v, want 5 (gauges: %+v)", found["dhl_flowtab_entries"], snap.Gauges)
	}
	if found["dhl_flowtab_capacity"] != 8 {
		t.Fatalf("dhl_flowtab_capacity = %v, want 8", found["dhl_flowtab_capacity"])
	}
	if found["dhl_flowtab_mem_bytes"] == 0 {
		t.Fatal("dhl_flowtab_mem_bytes missing")
	}
	UnregisterGauges(tel, "unit")
	if n := len(tel.Snapshot().Gauges); n != 0 {
		t.Fatalf("%d gauges survive UnregisterGauges", n)
	}
}

// TestFlowtabZeroAllocHitPath is the in-process allocation gate the
// benchmarks mirror: steady-state Lookup/Insert-hit/Tick must not touch
// the heap.
func TestFlowtabZeroAllocHitPath(t *testing.T) {
	clk := &fakeClock{}
	tab := newTable(t, Config[uint64, uint64]{
		InitialEntries: 1 << 12, TTL: eventsim.Second, Clock: clk.Now,
	})
	for k := uint64(0); k < 1000; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	var k uint64
	if avg := testing.AllocsPerRun(1000, func() {
		clk.now += eventsim.Microsecond
		if _, ok := tab.Lookup(k % 1000); !ok {
			t.Fatal("hit path missed")
		}
		if _, _, err := tab.Insert(k % 1000); err != nil {
			t.Fatal(err)
		}
		tab.Tick()
		k++
	}); avg != 0 {
		t.Fatalf("hit path allocates %.1f/op, want 0", avg)
	}
}

// TestFlowtabZeroAllocChurn pins the miss path too: insert-new +
// delete (no growth, capacity preallocated) stays allocation-free.
func TestFlowtabZeroAllocChurn(t *testing.T) {
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: 1 << 12})
	var k uint64
	if avg := testing.AllocsPerRun(1000, func() {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
		tab.Delete(k)
		k++
	}); avg != 0 {
		t.Fatalf("churn path allocates %.1f/op, want 0", avg)
	}
}
