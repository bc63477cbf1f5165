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
	clk := &fakeClock{}
	if _, err := New(Config[uint64, uint64]{Hash: Mix64, TTL: eventsim.Second, Clock: clk.Now, WheelSlots: maxWheelSlots + 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("wheel over 2^24 slots: got %v, want ErrBadConfig", err)
	}
}

func TestInsertLookupEvict(t *testing.T) {
	clk := &fakeClock{}
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: 8, TTL: eventsim.Second, Clock: clk.Now})
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
	// Touch the odd half, expire the even half, and verify the rest still
	// resolve (backshift correctness).
	clk.now = eventsim.Second / 2
	for k := uint64(1); k < 100; k += 2 {
		tab.Lookup(k)
	}
	clk.now = eventsim.Second + eventsim.Second/4
	if n := tab.Tick(); n != 50 {
		t.Fatalf("Tick evicted %d, want the 50 untouched", n)
	}
	if tab.Len() != 50 {
		t.Fatalf("Len = %d, want 50", tab.Len())
	}
	for k := uint64(1); k < 100; k += 2 {
		if v, ok := tab.Lookup(k); !ok || *v != k*10 {
			t.Fatalf("post-expiry Lookup(%d) broken", k)
		}
	}
	for k := uint64(0); k < 100; k += 2 {
		if _, ok := tab.Lookup(k); ok {
			t.Fatalf("expired key %d still resolves", k)
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

// TestEvictDuringMigration: keys that expire while they still live in the
// draining old index must tombstone there (not backshift, which could
// orphan a bucket behind the migration cursor), and their freed slots must
// not stay reachable from it once reused.
func TestEvictDuringMigration(t *testing.T) {
	clk := &fakeClock{}
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: 16, TTL: eventsim.Second, Clock: clk.Now})
	for k := uint64(0); k < 16; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	clk.now = eventsim.Second / 2
	for k := uint64(1); k < 16; k += 2 {
		tab.Lookup(k)
	}
	// The 17th insert doubles the table; every other key is left in the
	// old index, which nothing drains until the next insert.
	if _, _, err := tab.Insert(16); err != nil {
		t.Fatal(err)
	}
	if tab.oldIdx == nil {
		t.Fatal("no index left draining")
	}
	clk.now = eventsim.Second + eventsim.Second/4
	if n := tab.Tick(); n != 8 {
		t.Fatalf("Tick evicted %d, want the 8 untouched", n)
	}
	for k := uint64(0); k < 17; k++ {
		if _, ok := tab.Lookup(k); ok != (k%2 == 1 || k == 16) {
			t.Fatalf("Lookup(%d) = %v after the even keys below 16 expired", k, ok)
		}
	}
	// New keys take the freed slots while the old index drains.
	for k := uint64(100); k < 108; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]int{}
	tab.Range(func(k uint64, _ *uint64) bool {
		seen[k]++
		return true
	})
	if len(seen) != tab.Len() || tab.Len() != 17 {
		t.Fatalf("Range saw %v, Len %d; want 17 keys once each", seen, tab.Len())
	}
	for k, n := range seen {
		if _, ok := tab.Lookup(k); !ok || n != 1 {
			t.Fatalf("key %d: Range saw it %d times, Lookup found it %v", k, n, ok)
		}
	}
}

// TestEvictedKeyStaysGoneWhileIndexDrains: a bucket the migration cursor
// has moved must not still lead to its entry. Key 0 is the case a freed
// slot matches, its key being zeroed.
func TestEvictedKeyStaysGoneWhileIndexDrains(t *testing.T) {
	clk := &fakeClock{}
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: 16, TTL: eventsim.Second, Clock: clk.Now})
	if _, _, err := tab.Insert(0); err != nil {
		t.Fatal(err)
	}
	// The 17th insert doubles the table; the 18th moves all 32 buckets of
	// the old index, which stays until the next insert releases it.
	clk.now = eventsim.Second / 2
	for k := uint64(1); k < 18; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if tab.oldIdx == nil {
		t.Fatal("no index left draining")
	}
	clk.now = eventsim.Second + eventsim.Second/4
	if n := tab.Tick(); n != 1 {
		t.Fatalf("Tick evicted %d, want key 0 alone", n)
	}
	if _, ok := tab.Lookup(0); ok {
		t.Fatal("expired key 0 found through the draining index")
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
	// A gap of more than 2^32 granules wraps every 32-bit stamp. Flows
	// touched and born on its far side, before any Tick, must outlive the
	// ones left behind.
	for k := uint64(0); k < 5; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	clk.now += eventsim.Time(1<<32+3) * tab.gran
	if _, ok := tab.Lookup(4); !ok {
		t.Fatal("flow 4 gone before a Tick")
	}
	for k := uint64(5); k < 7; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	clk.now += eventsim.Millisecond / 2
	if n := tab.Tick(); n != 4 {
		t.Fatalf("Tick after a 2^32-granule gap evicted %d, want the 4 untouched", n)
	}
	for k := uint64(4); k < 7; k++ {
		if _, ok := tab.Lookup(k); !ok {
			t.Fatalf("flow %d touched after the gap was evicted", k)
		}
	}
	// Twice as far again with nothing written: a Tick expires them all.
	clk.now += eventsim.Time(1<<33) * tab.gran
	if n := tab.Tick(); n != 3 {
		t.Fatalf("Tick after a 2^33-granule gap evicted %d, want 3", n)
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
}

func TestRange(t *testing.T) {
	clk := &fakeClock{}
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: 8, TTL: eventsim.Second, Clock: clk.Now})
	want := map[uint64]uint64{}
	for k := uint64(0); k < 50; k++ {
		v, _, _ := tab.Insert(k)
		*v = k + 1
		want[k] = k + 1
	}
	// Every key but 10 is touched, so 10 alone expires.
	clk.now = eventsim.Second / 2
	for k := range want {
		if k != 10 {
			tab.Lookup(k)
		}
	}
	clk.now = eventsim.Second + eventsim.Second/4
	if n := tab.Tick(); n != 1 {
		t.Fatalf("Tick evicted %d, want 1", n)
	}
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

// TestFlowtabZeroAllocChurn pins the miss path too: at its MaxEntries
// cap the table makes room for each new flow by pressure eviction, and
// neither allocates.
func TestFlowtabZeroAllocChurn(t *testing.T) {
	clk := &fakeClock{}
	const n = 1 << 12
	tab := newTable(t, Config[uint64, uint64]{InitialEntries: n, MaxEntries: n, TTL: eventsim.Second, Clock: clk.Now})
	var k uint64
	for ; k < n; k++ {
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(1000, func() {
		clk.now += eventsim.Microsecond
		if _, _, err := tab.Insert(k); err != nil {
			t.Fatal(err)
		}
		k++
	}); avg != 0 {
		t.Fatalf("churn path allocates %.1f/op, want 0", avg)
	}
	if st := tab.TabStats(); st.EvictedPressure < 1000 || tab.Len() != n {
		t.Fatalf("%d pressure evictions, %d live; want every insert past the cap to evict one", st.EvictedPressure, tab.Len())
	}
}
