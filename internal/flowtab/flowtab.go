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
// Layout: entries live in one slab of slots (key, value, deadline and
// the two intrusive wheel links; no stored hash) indexed by a stable
// int32 entry index, so a firewall verdict or a NAT binding is one
// 32-byte slot. The hash index is a flat []int32 of entry indexes with
// linear probing, sized 2x the slab so load never exceeds 50%. Expiry
// is a timer wheel of WheelSlots buckets of granularity TTL/slots; each
// entry sits in the doubly-linked list of the slot holding its
// deadline, and Tick sweeps only the slots the clock has crossed.
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
	emptySlot = int32(-1) // index bucket: no entry
	deadSlot  = int32(-2) // index bucket: tombstone (draining old index only)
	freeMark  = int32(-3) // entry.prev sentinel: entry is on the freelist

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
)

// Config parameterizes New.
type Config[K comparable, V any] struct {
	// Name labels the table in telemetry ("nat-outbound", "fw-flows").
	Name string
	// Hash maps a key to a well-distributed 64-bit hash. Required.
	// Mix64 and HashFiveTuple are suitable building blocks.
	Hash func(K) uint64
	// Clock supplies the current virtual time. Required when TTL > 0;
	// wire it to Sim.Now.
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
	// WheelSlots sizes the expiry wheel (rounded up to a power of two).
	// Zero selects DefaultWheelSlots. Ignored when TTL is zero.
	WheelSlots int
	// OnEvict observes TTL and pressure evictions (not explicit
	// Deletes) before the entry is recycled — the NAT uses it to free
	// the translation's external port. It must not call back into the
	// same table.
	OnEvict func(K, *V)
}

// Stats is a point-in-time snapshot of one table's counters, the raw
// material for the dhl_flowtab_* gauges.
type Stats struct {
	Entries         uint64 `json:"entries"`          // live entries
	Capacity        uint64 `json:"capacity"`         // slab capacity (entries the table can hold now)
	MemBytes        uint64 `json:"mem_bytes"`        // bytes currently allocated (slab + indexes + wheel)
	Lookups         uint64 `json:"lookups"`          // Lookup calls
	Hits            uint64 `json:"hits"`             // Lookup calls that found the key
	Inserts         uint64 `json:"inserts"`          // new entries created
	Deletes         uint64 `json:"deletes"`          // explicit Delete calls that removed an entry
	EvictedIdle     uint64 `json:"evicted_idle"`     // entries expired by the wheel (TTL)
	EvictedPressure uint64 `json:"evicted_pressure"` // entries evicted to make room at the budget
	Rehashes        uint64 `json:"rehashes"`         // growth events (index doublings)
	FullDrops       uint64 `json:"full_drops"`       // inserts refused with ErrTableFull
}

// entry is one slab slot. The hash is not stored: the few paths that
// need it without the key in hand (erase, backshift, migration)
// recompute it.
type entry[K comparable, V any] struct {
	key      K
	val      V
	deadline eventsim.Time
	next     int32 // wheel forward link, or freelist link when free
	prev     int32 // wheel back link, or freeMark when free
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

	// Expiry wheel (nil when TTL is zero): per-slot list heads of
	// entries whose deadline falls in that slot's granule.
	wheel     []int32
	wheelMask int64
	gran      eventsim.Time
	ttl       eventsim.Time
	tickDone  int64 // last fully-swept granule number

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
		t.wheelMask = int64(wheelSlots - 1)
		t.gran = cfg.TTL/eventsim.Time(wheelSlots) + 1
		t.tickDone = int64(t.clock())/int64(t.gran) - 1
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
		slab[i].prev = freeMark
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
	*en = entry[K, V]{key: k, next: emptySlot, prev: emptySlot}
	t.live++
	t.stats.Inserts++
	if t.wheel != nil {
		d := t.clock() + t.ttl
		en.deadline = d
		t.wheelLink(e, t.slotOf(d))
	}
	t.idxPut(e, h)
	return &en.val, false, nil
}

// Delete removes the entry for k (no OnEvict callback — the caller
// decided, it does not need notifying).
//
//dhl:hotpath
func (t *Table[K, V]) Delete(k K) bool {
	e := t.find(t.hash(k), k)
	if e < 0 {
		return false
	}
	t.stats.Deletes++
	t.removeEntry(e)
	return true
}

// Tick advances the expiry wheel over every granule that has fully
// elapsed, evicting the entries whose idle deadline lies in one, and
// reports how many. The granule the clock is in is left for a later Tick:
// sweeping it would move the cursor past its deadlines still ahead, and
// those would wait a whole lap. Call it periodically (a paced eventsim
// timer); cost is proportional to slots crossed since the last call,
// capped at one full lap.
//
//dhl:hotpath
func (t *Table[K, V]) Tick() int {
	if t.wheel == nil {
		return 0
	}
	done := int64(t.clock())/int64(t.gran) - 1
	if done <= t.tickDone {
		return 0
	}
	span := min(done-t.tickDone, int64(len(t.wheel)))
	cutoff := eventsim.Time((done+1)*int64(t.gran) - 1) // last instant of granule done
	evicted := 0
	for i := int64(1); i <= span; i++ {
		slot := int((t.tickDone + i) & t.wheelMask)
		evicted += t.expireSlot(slot, cutoff)
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

// touch refreshes e's idle deadline, relinking it on the wheel only
// when the new deadline lands in a different slot.
//
//dhl:hotpath
func (t *Table[K, V]) touch(e int32) {
	if t.wheel == nil {
		return
	}
	d := t.clock() + t.ttl
	old := t.slab[e].deadline
	t.slab[e].deadline = d
	if int64(old)/int64(t.gran) == int64(d)/int64(t.gran) {
		return
	}
	t.wheelUnlink(e, t.slotOf(old))
	t.wheelLink(e, t.slotOf(d))
}

//dhl:hotpath
func (t *Table[K, V]) slotOf(d eventsim.Time) int {
	return int((int64(d) / int64(t.gran)) & t.wheelMask)
}

//dhl:hotpath
func (t *Table[K, V]) wheelLink(e int32, slot int) {
	head := t.wheel[slot]
	t.slab[e].prev = emptySlot
	t.slab[e].next = head
	if head != emptySlot {
		t.slab[head].prev = e
	}
	t.wheel[slot] = e
}

//dhl:hotpath
func (t *Table[K, V]) wheelUnlink(e int32, slot int) {
	p, n := t.slab[e].prev, t.slab[e].next
	if p != emptySlot {
		t.slab[p].next = n
	} else {
		t.wheel[slot] = n
	}
	if n != emptySlot {
		t.slab[n].prev = p
	}
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

// expireSlot evicts every entry in slot whose deadline is at or before
// cutoff.
//
//dhl:hotpath
func (t *Table[K, V]) expireSlot(slot int, cutoff eventsim.Time) int {
	n := 0
	e := t.wheel[slot]
	for e != emptySlot {
		nx := t.slab[e].next
		if t.slab[e].deadline <= cutoff {
			t.evict(e, &t.stats.EvictedIdle)
			n++
		}
		e = nx
	}
	return n
}

// evict notifies OnEvict and recycles the entry.
//
//dhl:hotpath
func (t *Table[K, V]) evict(e int32, counter *uint64) {
	if t.onEvict != nil {
		t.onEvict(t.slab[e].key, &t.slab[e].val)
	}
	*counter++
	t.removeEntry(e)
}

// removeEntry erases e from the index and wheel and pushes it onto the
// freelist, zeroing key and value so held references are released.
//
//dhl:hotpath
func (t *Table[K, V]) removeEntry(e int32) {
	t.idxErase(e)
	if t.wheel != nil {
		t.wheelUnlink(e, t.slotOf(t.slab[e].deadline))
	}
	t.slab[e] = entry[K, V]{next: t.freeHead, prev: freeMark}
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
// else pressure-evict the live entry closest to expiry.
//
//go:noinline
func (t *Table[K, V]) makeRoom() error {
	if t.canGrow() {
		t.grow()
		return nil
	}
	if t.wheel != nil {
		if e := t.oldestEntry(); e >= 0 {
			t.evict(e, &t.stats.EvictedPressure)
			return nil
		}
	}
	return ErrTableFull
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

// oldestEntry finds a victim for pressure eviction: the head of the
// first populated wheel slot at or after the sweep cursor — the entry
// nearest its idle deadline, an approximate LRU.
//
//go:noinline
func (t *Table[K, V]) oldestEntry() int32 {
	for s := int64(0); s <= t.wheelMask; s++ {
		slot := int((t.tickDone + 1 + s) & t.wheelMask)
		if e := t.wheel[slot]; e != emptySlot {
			return e
		}
	}
	return emptySlot
}

// Range calls fn for every live entry until fn returns false. Cold
// (iterates the slab); mutation other than through the *V is not safe
// during iteration.
func (t *Table[K, V]) Range(fn func(K, *V) bool) {
	for e := range t.slab {
		en := &t.slab[e]
		if en.prev == freeMark {
			continue
		}
		if !fn(en.key, &en.val) {
			return
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
