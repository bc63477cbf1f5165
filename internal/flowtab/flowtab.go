// Package flowtab is the million-flow state layer: a generic,
// cache-friendly open-addressing flow table with incremental rehash,
// power-of-two growth under a hard memory budget, and a clock-wheel
// expiry driven off eventsim time for bounded-memory eviction.
//
// The stateful NFs (NAT, flow-aware firewall, SADB) keep
// per-flow state here instead of in Go maps, for three reasons the
// built-in map cannot deliver together:
//
//   - Zero-allocation hit paths. Lookup and Insert of an existing flow
//     touch only the preallocated slab and index; they are `//dhl:hotpath`
//     annotated and the escapecheck gate proves nothing escapes.
//   - Bounded memory. The table refuses to grow past MemBudgetBytes;
//     at capacity it evicts the entry closest to expiry (pressure
//     eviction) rather than allocating, so a SYN flood cannot OOM the
//     NF. Go maps also never shrink and rehash with unbounded pauses.
//   - Smooth growth. Doubling migrates the hash index incrementally
//     (migrateStep buckets per insert), so a growth event costs O(1)
//     per packet instead of a multi-millisecond stop-the-world rehash
//     in the middle of a line-rate burst.
//
// Layout: entries live in one slab of slots (key, value, a 32-bit
// deadline stamp and one intrusive wheel link; no stored hash) indexed
// by a stable int32 entry index, so a firewall verdict is one 24-byte
// slot and a NAT binding one of 20. The hash index is a flat []int32 of
// entry indexes with linear probing, sized 2x the slab so load never
// exceeds 50%. Expiry is a timer wheel of WheelSlots buckets of
// granularity TTL/slots; an entry's stamp is the granule its idle
// deadline falls in, and it sits on the singly-linked list of a slot no
// later than that granule. Touching an entry only rewrites its stamp;
// Tick sweeps the slots the clock has crossed, evicting what has expired
// and re-filing the rest to the slot their stamp names.
package flowtab

import (
	"errors"
	"fmt"
	"unsafe"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

// Errors returned by the flow table.
var (
	// ErrBadConfig reports an invalid Config.
	ErrBadConfig = errors.New("flowtab: invalid config")
	// ErrTableFull reports an insert refused because the table is at its
	// memory budget (or MaxEntries) and has nothing it may evict.
	ErrTableFull = errors.New("flowtab: table full")
)

const (
	emptySlot = int32(-1) // index bucket or link: no entry
	deadSlot  = int32(-2) // index bucket: tombstone (draining old index only)

	// migrateStep bounds the per-insert incremental rehash work.
	migrateStep = 32

	// DefaultInitialEntries is the slab capacity when Config leaves
	// InitialEntries zero.
	DefaultInitialEntries = 1024
	// DefaultWheelSlots is the expiry wheel size when Config leaves
	// WheelSlots zero.
	DefaultWheelSlots = 256

	// maxSlabEntries keeps entry indexes representable in int32 with the
	// sentinels reserved.
	maxSlabEntries = 1 << 30
	// maxWheelSlots leaves rebase whole laps of room below a stamp
	// stampLead granules past the sweep cursor.
	maxWheelSlots = 1 << 24
	// stampLead is how many granules past the sweep cursor a stamp may
	// be written before rebase moves the cursor up: under 2^32, so every
	// live stamp decodes against the cursor.
	stampLead = 1 << 31
)

// Config parameterizes New.
type Config[K comparable, V any] struct {
	// Name labels the table in telemetry ("nat-outbound", "fw-flows").
	Name string
	// Hash maps a key to a well-distributed 64-bit hash. Required.
	// Mix64 and HashFiveTuple are suitable building blocks.
	Hash func(K) uint64
	// Clock supplies the current virtual time, which must not run
	// backwards. Required when TTL > 0; wire it to Sim.Now.
	Clock func() eventsim.Time
	// InitialEntries is the starting slab capacity (rounded up to a
	// power of two). Zero selects DefaultInitialEntries.
	InitialEntries int
	// MaxEntries caps the slab capacity (rounded down to a power of
	// two). Zero leaves growth bounded only by MemBudgetBytes.
	MaxEntries int
	// MemBudgetBytes is the hard memory budget: growth that would push
	// MemBytes past it is refused and inserts fall back to pressure
	// eviction. Zero means unbudgeted.
	MemBudgetBytes int
	// TTL is the idle expiry: an entry untouched for TTL is evicted by
	// Tick (or by pressure). Zero disables the wheel entirely.
	TTL eventsim.Time
	// WheelSlots sizes the expiry wheel (rounded up to a power of two,
	// at most 2^24). Zero selects DefaultWheelSlots. Ignored when TTL is
	// zero.
	//
	//dhl:allow unreferenced the model test's lap-wrap seeds need a small wheel
	WheelSlots int
	// OnEvict observes TTL and pressure evictions before the entry is
	// recycled — the NAT uses it to free the translation's external
	// port. It must not call back into the same table.
	OnEvict func(K, *V)
}

// Stats is a point-in-time snapshot of one table's counters, the raw
// material for the dhl_flowtab_* gauges.
type Stats struct {
	Entries  uint64 `json:"entries"`   // live entries
	Capacity uint64 `json:"capacity"`  // slab capacity (entries the table can hold now)
	MemBytes uint64 `json:"mem_bytes"` // bytes currently allocated (slab + indexes + wheel)
	Lookups  uint64 `json:"lookups"`   // Lookup calls
	Hits     uint64 `json:"hits"`      // Lookup calls that found the key
	Inserts  uint64 `json:"inserts"`   // new entries created
	// Deletes is always 0, as entries leave only by eviction; stats.get
	// replies keep the field.
	Deletes         uint64 `json:"deletes"`
	EvictedIdle     uint64 `json:"evicted_idle"`     // entries expired by the wheel (TTL)
	EvictedPressure uint64 `json:"evicted_pressure"` // entries evicted to make room at the budget
	Rehashes        uint64 `json:"rehashes"`         // growth events (index doublings)
	FullDrops       uint64 `json:"full_drops"`       // inserts refused with ErrTableFull
}

// entry is one slab slot. The hash is not stored: the few paths that
// need it without the key in hand (erase, backshift, migration)
// recompute it.
type entry[K comparable, V any] struct {
	key   K
	val   V
	stamp uint32 // granule of the idle deadline, modulo 2^32
	next  int32  // wheel link, or freelist link when free
}

// Table is an open-addressing flow table. Not safe for concurrent use:
// confine it to one core, per the DHL threading model (one NF thread
// owns its flow state).
type Table[K comparable, V any] struct {
	name    string
	hash    func(K) uint64
	clock   func() eventsim.Time
	onEvict func(K, *V)

	// Entry slab indexed by a stable int32 entry index. Growth copies
	// eagerly so indexes (and wheel links) stay valid; only the hash
	// index rehashes incrementally.
	slab     []entry[K, V]
	freeHead int32
	live     int

	// Hash index: entry indexes with linear probing, len = 2x slab
	// capacity so load factor never exceeds 50%.
	idx  []int32
	mask uint64

	// Draining previous index during incremental rehash. New inserts
	// only ever land in idx; lookups probe both; each Insert migrates
	// migrateStep buckets until oldIdx is drained and released.
	oldIdx  []int32
	oldMask uint64
	migrate int

	// Expiry wheel (nil when TTL is zero): per-slot list heads. Every
	// live entry sits in the slot of a granule after tickDone and no
	// later than its stamp, so it is in a slot Tick sweeps before its
	// deadline passes (an entry rebase restamped may sit anywhere, but
	// the next Tick sweeps the whole wheel); its stamp decodes as the
	// one granule in [tickDone+1, tickDone+1+2^32) it names.
	wheel     []int32
	wheelMask uint32
	gran      eventsim.Time
	ttl       eventsim.Time
	tickDone  int64 // last fully-swept granule number
	// sortedStamp is no later than any stamp written since every entry
	// last sat in the slot its stamp names.
	sortedStamp int64

	maxEntries int
	budget     int
	entryBytes int // slab bytes per entry, unsafe.Sizeof(entry[K, V]{})

	stats Stats
}

// New validates cfg and builds a table.
func New[K comparable, V any](cfg Config[K, V]) (*Table[K, V], error) {
	if cfg.Hash == nil {
		return nil, fmt.Errorf("%w: Hash is required", ErrBadConfig)
	}
	if cfg.TTL < 0 {
		return nil, fmt.Errorf("%w: negative TTL %d", ErrBadConfig, cfg.TTL)
	}
	if cfg.TTL > 0 && cfg.Clock == nil {
		return nil, fmt.Errorf("%w: TTL without a Clock", ErrBadConfig)
	}
	if cfg.InitialEntries < 0 || cfg.MaxEntries < 0 || cfg.MemBudgetBytes < 0 {
		return nil, fmt.Errorf("%w: negative size", ErrBadConfig)
	}
	if cfg.WheelSlots > maxWheelSlots {
		return nil, fmt.Errorf("%w: %d wheel slots, at most %d", ErrBadConfig, cfg.WheelSlots, maxWheelSlots)
	}
	t := &Table[K, V]{
		name:     cfg.Name,
		hash:     cfg.Hash,
		clock:    cfg.Clock,
		onEvict:  cfg.OnEvict,
		budget:   cfg.MemBudgetBytes,
		ttl:      cfg.TTL,
		freeHead: emptySlot,
	}
	t.entryBytes = int(unsafe.Sizeof(entry[K, V]{}))
	if cfg.MaxEntries > 0 {
		t.maxEntries = floorPow2(cfg.MaxEntries)
	}
	initial := cfg.InitialEntries
	if initial == 0 {
		initial = DefaultInitialEntries
	}
	capacity := ceilPow2(initial)
	if t.maxEntries > 0 && capacity > t.maxEntries {
		capacity = t.maxEntries
	}
	wheelSlots := 0
	if cfg.TTL > 0 {
		wheelSlots = cfg.WheelSlots
		if wheelSlots == 0 {
			wheelSlots = DefaultWheelSlots
		}
		wheelSlots = ceilPow2(wheelSlots)
	}
	// Shrink the initial capacity until it fits the budget.
	for t.budget > 0 && capacity > 1 && t.memAt(capacity, 2*capacity, 0, wheelSlots) > t.budget {
		capacity >>= 1
	}
	if t.budget > 0 && t.memAt(capacity, 2*capacity, 0, wheelSlots) > t.budget {
		return nil, fmt.Errorf("%w: budget %d B cannot hold even one entry (%d B/entry)",
			ErrBadConfig, t.budget, t.entryBytes+8)
	}
	t.allocSlab(capacity)
	t.idx = newIndex(2 * capacity)
	t.mask = uint64(2*capacity - 1)
	if cfg.TTL > 0 {
		t.wheel = newIndex(wheelSlots)
		t.wheelMask = uint32(wheelSlots - 1)
		t.gran = cfg.TTL/eventsim.Time(wheelSlots) + 1
		now := t.clock()
		t.tickDone = t.granule(now) - 1
		t.sortedStamp = t.granule(now + t.ttl)
	}
	return t, nil
}

// allocSlab (re)allocates the entry slab at capacity entries, copying
// any existing entries and chaining the new tail onto the freelist.
//
//go:noinline
func (t *Table[K, V]) allocSlab(capacity int) {
	slab := make([]entry[K, V], capacity)
	old := copy(slab, t.slab)
	for i := capacity - 1; i >= old; i-- {
		slab[i].next = t.freeHead
		t.freeHead = int32(i)
	}
	t.slab = slab
}

// newIndex allocates an index of n buckets, all empty.
//
//go:noinline
func newIndex(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = emptySlot
	}
	return idx
}

// Name reports the table's telemetry label.
func (t *Table[K, V]) Name() string { return t.name }

// Len reports the number of live entries.
func (t *Table[K, V]) Len() int { return t.live }

// MemBytes reports the bytes currently allocated by the table: slab,
// hash index(es), and wheel. This is what the memory budget bounds.
func (t *Table[K, V]) MemBytes() int {
	return t.memAt(len(t.slab), len(t.idx), len(t.oldIdx), len(t.wheel))
}

func (t *Table[K, V]) memAt(slab, idx, oldIdx, wheel int) int {
	return slab*t.entryBytes + (idx+oldIdx+wheel)*4
}

// TabStats snapshots the table's counters.
func (t *Table[K, V]) TabStats() Stats {
	s := t.stats
	s.Entries = uint64(t.live)
	s.Capacity = uint64(len(t.slab))
	s.MemBytes = uint64(t.MemBytes())
	return s
}

// Lookup finds the entry for k, refreshing its idle deadline. The
// returned pointer is valid until the next Insert (growth may move the
// slab) — use it immediately, the per-packet pattern.
//
//dhl:hotpath
func (t *Table[K, V]) Lookup(k K) (*V, bool) {
	t.stats.Lookups++
	e := t.find(t.hash(k), k)
	if e < 0 {
		return nil, false
	}
	t.stats.Hits++
	t.touch(e)
	return &t.slab[e].val, true
}

// Insert finds or creates the entry for k. found reports whether the
// flow already existed (counted in neither Lookups nor Hits); when false
// the value is freshly zeroed. At the memory budget the table
// pressure-evicts the entry closest to expiry; with no wheel it refuses
// with ErrTableFull. The pointer is valid until the next Insert.
//
//dhl:hotpath
func (t *Table[K, V]) Insert(k K) (v *V, found bool, err error) {
	h := t.hash(k)
	if e := t.find(h, k); e >= 0 {
		t.touch(e)
		return &t.slab[e].val, true, nil
	}
	t.migrateSome()
	if t.freeHead == emptySlot {
		if err := t.makeRoom(); err != nil {
			t.stats.FullDrops++
			return nil, false, err
		}
	}
	e := t.freeHead
	en := &t.slab[e]
	t.freeHead = en.next
	*en = entry[K, V]{key: k, next: emptySlot}
	t.live++
	t.stats.Inserts++
	if t.wheel != nil {
		en.stamp = t.stampNow()
		t.push(e, en.stamp)
	}
	t.idxPut(e, h)
	return &en.val, false, nil
}

// Tick advances the expiry wheel over every granule that has fully
// elapsed, evicting the entries whose idle deadline lies in one, and
// reports how many. The granule the clock is in is left for a later Tick:
// sweeping it would move the cursor past its deadlines still ahead, and
// those would wait a whole lap. Call it periodically (a paced eventsim
// timer); cost is proportional to slots crossed since the last call,
// capped at one full lap, and to the entries they hold.
//
//dhl:hotpath
func (t *Table[K, V]) Tick() int {
	if t.wheel == nil {
		return 0
	}
	done := t.granule(t.clock()) - 1
	if done <= t.tickDone {
		return 0
	}
	span := min(done-t.tickDone, int64(len(t.wheel)))
	evicted := 0
	for i := int64(1); i <= span; i++ {
		evicted += t.sweepSlot(int(uint32(t.tickDone+i)&t.wheelMask), done)
	}
	t.tickDone = done
	return evicted
}

// find probes both indexes for k, returning its entry index or a
// negative sentinel.
//
//dhl:hotpath
func (t *Table[K, V]) find(h uint64, k K) int32 {
	i := h & t.mask
	for {
		e := t.idx[i]
		if e == emptySlot {
			break
		}
		if e >= 0 && t.slab[e].key == k {
			return e
		}
		i = (i + 1) & t.mask
	}
	if t.oldIdx != nil {
		i = h & t.oldMask
		for {
			e := t.oldIdx[i]
			if e == emptySlot {
				break
			}
			if e >= 0 && t.slab[e].key == k {
				return e
			}
			i = (i + 1) & t.oldMask
		}
	}
	return emptySlot
}

// touch refreshes e's idle deadline. The entry stays where it sits on
// the wheel, which is still no later than its new stamp: the sweep that
// reaches it re-files it.
//
//dhl:hotpath
func (t *Table[K, V]) touch(e int32) {
	if t.wheel != nil {
		t.slab[e].stamp = t.stampNow()
	}
}

// stampNow is the stamp of an idle deadline set now: the granule a TTL
// ahead of the clock.
//
//dhl:hotpath
func (t *Table[K, V]) stampNow() uint32 {
	s := t.granule(t.clock() + t.ttl)
	if s-t.tickDone > stampLead {
		t.rebase(s)
	}
	return uint32(s)
}

//dhl:hotpath
func (t *Table[K, V]) granule(d eventsim.Time) int64 { return int64(d / t.gran) }

// stampGranule decodes a live entry's stamp.
//
//dhl:hotpath
func (t *Table[K, V]) stampGranule(stamp uint32) int64 {
	base := t.tickDone + 1
	return base + int64(stamp-uint32(base))
}

// push links e at the head of the slot stamp names.
//
//dhl:hotpath
func (t *Table[K, V]) push(e int32, stamp uint32) {
	slot := stamp & t.wheelMask
	t.slab[e].next = t.wheel[slot]
	t.wheel[slot] = e
}

// idxPut writes e into the current index (never the draining one).
//
//dhl:hotpath
func (t *Table[K, V]) idxPut(e int32, h uint64) {
	i := h & t.mask
	for t.idx[i] >= 0 {
		i = (i + 1) & t.mask
	}
	t.idx[i] = e
}

// migrateSome drains up to migrateStep buckets of the old index into
// the current one, releasing the old index when done. A moved bucket
// becomes a tombstone, so every entry is in exactly one index (a stale
// bucket would lead find to the entry after it is freed), and probe
// chains through it still reach the buckets not yet moved.
//
//dhl:hotpath
func (t *Table[K, V]) migrateSome() {
	if t.oldIdx == nil {
		return
	}
	for n := 0; n < migrateStep; n++ {
		if t.migrate >= len(t.oldIdx) {
			t.oldIdx = nil
			t.oldMask = 0
			t.migrate = 0
			return
		}
		e := t.oldIdx[t.migrate]
		if e >= 0 {
			t.idxPut(e, t.hash(t.slab[e].key))
			t.oldIdx[t.migrate] = deadSlot
		}
		t.migrate++
	}
}

// sweepSlot walks slot's list, evicting every entry whose stamp is at or
// before granule done and re-filing every other one whose stamp names
// another slot, and reports the evictions.
//
//dhl:hotpath
func (t *Table[K, V]) sweepSlot(slot int, done int64) int {
	n := 0
	prev := emptySlot
	for e := t.wheel[slot]; e != emptySlot; {
		stamp, next := t.slab[e].stamp, t.slab[e].next
		switch {
		case t.stampGranule(stamp) <= done:
			t.unlink(slot, prev, next)
			t.evict(e, &t.stats.EvictedIdle)
			n++
		case int(stamp&t.wheelMask) != slot:
			t.unlink(slot, prev, next)
			t.push(e, stamp)
		default:
			prev = e
		}
		e = next
	}
	return n
}

// unlink removes the entry after prev (the head when prev is emptySlot)
// from slot's list; next is the removed entry's link.
//
//dhl:hotpath
func (t *Table[K, V]) unlink(slot int, prev, next int32) {
	if prev == emptySlot {
		t.wheel[slot] = next
	} else {
		t.slab[prev].next = next
	}
}

// evict notifies OnEvict, erases e from the index and pushes it onto
// the freelist, zeroing key and value so held references are released.
// The caller has already unlinked e from the wheel.
//
//dhl:hotpath
func (t *Table[K, V]) evict(e int32, counter *uint64) {
	if t.onEvict != nil {
		t.onEvict(t.slab[e].key, &t.slab[e].val)
	}
	*counter++
	t.idxErase(e)
	t.slab[e] = entry[K, V]{next: t.freeHead}
	t.freeHead = e
	t.live--
}

// idxErase removes e's bucket: backward-shift compaction in the
// current index, a tombstone in the draining old index (shifting there
// could move a bucket behind the migration cursor and orphan it).
//
//dhl:hotpath
func (t *Table[K, V]) idxErase(e int32) {
	h := t.hash(t.slab[e].key)
	i := h & t.mask
	for {
		s := t.idx[i]
		if s == emptySlot {
			break // not in the current index; must be in the old one
		}
		if s == e {
			t.backshift(i)
			return
		}
		i = (i + 1) & t.mask
	}
	if t.oldIdx == nil {
		return
	}
	i = h & t.oldMask
	for {
		s := t.oldIdx[i]
		if s == emptySlot {
			return
		}
		if s == e {
			t.oldIdx[i] = deadSlot
			return
		}
		i = (i + 1) & t.oldMask
	}
}

// backshift closes the hole at bucket i by moving later probe-chain
// buckets back, the standard deletion for linear probing.
//
//dhl:hotpath
func (t *Table[K, V]) backshift(i uint64) {
	for {
		t.idx[i] = emptySlot
		j := i
		for {
			j = (j + 1) & t.mask
			s := t.idx[j]
			if s == emptySlot {
				return
			}
			home := t.hash(t.slab[s].key) & t.mask
			if ((j - home) & t.mask) >= ((j - i) & t.mask) {
				t.idx[j] = emptySlot
				t.idx[i] = s
				i = j
				break
			}
		}
	}
}

// makeRoom frees at least one slab entry: grow if the budget allows,
// else pressure-evict the head of victimSlot.
//
//go:noinline
func (t *Table[K, V]) makeRoom() error {
	if t.canGrow() {
		t.grow()
		return nil
	}
	if t.wheel == nil {
		return ErrTableFull
	}
	slot := t.victimSlot()
	e := t.wheel[slot]
	t.wheel[slot] = t.slab[e].next
	t.evict(e, &t.stats.EvictedPressure)
	return nil
}

func (t *Table[K, V]) canGrow() bool {
	newCap := 2 * len(t.slab)
	if newCap > maxSlabEntries {
		return false
	}
	if t.maxEntries > 0 && newCap > t.maxEntries {
		return false
	}
	// The budget must cover the grown slab, the new index, and the old
	// index retained while it drains.
	if t.budget > 0 && t.memAt(newCap, 2*newCap, len(t.idx), len(t.wheel)) > t.budget {
		return false
	}
	return true
}

// grow doubles the slab (eager copy, entry indexes stay stable) and
// swaps in a double-size index, leaving the previous one to drain
// incrementally.
//
//go:noinline
func (t *Table[K, V]) grow() {
	// A second doubling while the previous index is still draining is
	// rare (the drain finishes within capacity/migrateStep inserts);
	// finish it eagerly rather than track a chain of old indexes.
	for t.oldIdx != nil {
		t.migrateSome()
	}
	newCap := 2 * len(t.slab)
	t.allocSlab(newCap)
	t.oldIdx = t.idx
	t.oldMask = t.mask
	t.migrate = 0
	t.idx = newIndex(2 * newCap)
	t.mask = uint64(2*newCap - 1)
	t.stats.Rehashes++
}

// victimSlot returns the slot pressure eviction takes its victim from,
// with that victim at its head: the first slot after the sweep cursor
// that a live entry's stamp names — the deadlines closest ahead, an
// approximate LRU. The table must hold an entry.
//
// Walking from the cursor, it re-files each head whose stamp names
// another slot, and stops at the first head in its own slot. That slot
// is the first one named as long as every entry sits no further from
// the cursor than the slot its stamp names. A touch that carries a
// stamp past the cursor's lap breaks this: the stamp's slot wraps round
// to near the cursor while the entry sits further on. Such an entry was
// touched since the wheel was last fully re-filed, so its stamp is at
// least sortedStamp. Unless that rules it out ahead of the slot found,
// every slot is re-filed and the first populated one is taken.
//
//go:noinline
func (t *Table[K, V]) victimSlot() int {
	base := uint32(t.tickDone + 1)
	first := len(t.wheel) // slots past the cursor to the first one named
	for p := 0; p < first; p++ {
		slot := int((base + uint32(p)) & t.wheelMask)
		for e := t.wheel[slot]; e != emptySlot; e = t.wheel[slot] {
			stamp := t.slab[e].stamp
			if int(stamp&t.wheelMask) == slot {
				first = min(first, p)
				break
			}
			t.wheel[slot] = t.slab[e].next
			t.push(e, stamp)
			first = min(first, int((stamp-base)&t.wheelMask))
		}
	}
	newest := t.granule(t.clock() + t.ttl) // no stamp is later than this
	lapEnd := t.tickDone + int64(len(t.wheel))
	if first > 0 && newest > lapEnd && (newest > lapEnd+int64(len(t.wheel)) || int64(first) > t.sortedStamp-lapEnd-1) {
		for slot := range t.wheel {
			t.sweepSlot(slot, t.tickDone) // every stamp is after tickDone: re-file only
		}
		t.sortedStamp = newest
		for first = 0; t.wheel[(base+uint32(first))&t.wheelMask] == emptySlot; first++ {
		}
	}
	return int((base + uint32(first)) & t.wheelMask)
}

// rebase moves the sweep cursor up by whole laps when a stamp is about
// to be written stampLead granules past it, which only a clock that
// ran that far without a Tick can do. Every stamp at or before any
// later Tick's done is moved to the same slot in the lap after the new
// cursor, still at or before that done: the next Tick sweeps the whole
// wheel and evicts them, as it would have. Other stamps are within a
// few laps of the cursor, so every stamp decodes against it again.
//
//go:noinline
func (t *Table[K, V]) rebase(stamp int64) {
	w := int64(len(t.wheel))
	gone := stamp - w - 1 // a later Tick's done is at least the clock's granule - 1
	c := t.tickDone + (gone-w-t.tickDone)/w*w
	base := uint32(c + 1)
	for _, head := range t.wheel {
		for e := head; e != emptySlot; e = t.slab[e].next {
			if en := &t.slab[e]; t.stampGranule(en.stamp) <= gone {
				en.stamp = base + (en.stamp-base)&t.wheelMask
			}
		}
	}
	t.tickDone = c
}

// Range calls fn for every live entry until fn returns false. Cold
// (walks the indexes); mutation other than through the *V is not safe
// during iteration.
func (t *Table[K, V]) Range(fn func(K, *V) bool) {
	for _, idx := range [2][]int32{t.idx, t.oldIdx} {
		for _, e := range idx {
			if e >= 0 && !fn(t.slab[e].key, &t.slab[e].val) {
				return
			}
		}
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p <<= 1
	}
	return p
}
