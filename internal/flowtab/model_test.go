package flowtab

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

// The reference model: a map of live keys to values and idle deadlines on a
// fake clock, with the table's documented rules written out longhand.
// TestQuickVsModel and FuzzFlowtabVsModel run the same programs against it
// and the table, and compare the two after every step.

const (
	opBytes   = 2
	maxOps    = 96
	modelKeys = 48 // few enough that programs revisit keys, enough to fill every config

	// slotBytes is one entry[uint64, uint64]: key and value at 8 B each,
	// a uint32 stamp and an int32 wheel link.
	slotBytes = 24

	modelTTL   = eventsim.Time(800)
	modelSlots = 8
)

// modelHash gives every three consecutive keys one hash, so programs build
// probe chains of equal home buckets for lookup, backshift and migration to
// walk.
func modelHash(k uint64) uint64 { return Mix64(k / 3) }

// modelConfigs are the tables every program runs against: one that grows
// from two slots through every doubling, one whose memory budget stops
// growth at 16 so inserts pressure-evict, and one without a wheel whose
// MaxEntries makes inserts fail.
var modelConfigs = []struct {
	name     string
	cfg      Config[uint64, uint64]
	capacity int // the slab capacity New starts from
}{
	{"grow", Config[uint64, uint64]{InitialEntries: 2, TTL: modelTTL, WheelSlots: modelSlots}, 2},
	// 16 slots with their index, the 8 still draining and the wheel are
	// 608 B; doubling to 32 would need 1 184.
	{"budget", Config[uint64, uint64]{InitialEntries: 2, TTL: modelTTL, WheelSlots: modelSlots, MemBudgetBytes: 1100}, 2},
	{"nowheel", Config[uint64, uint64]{InitialEntries: 4, MaxEntries: 16}, 4},
}

type opKind uint8

const (
	opInsert    opKind = iota // Insert, then write the value through the pointer
	opGetCreate               // Insert, value left as found
	opLookup
	opAdvance // move the clock x%16 eighths of a TTL, then Tick
	opDrift   // move the clock x%16 eighths of a TTL without a Tick
	opRange   // Range, stopping after x%8 entries (0: all of them)
	opJump    // move the clock 2^32 + x granules, past every 32-bit stamp, without a Tick
	numOpKinds
)

// op is one step of a program; x picks the key (x % modelKeys), the value
// written, the clock advance or jump, or the Range cut-off.
type op struct {
	kind opKind
	x    uint8
}

func decodeOps(data []byte) []op {
	var ops []op
	for ; len(data) >= opBytes && len(ops) < maxOps; data = data[opBytes:] {
		ops = append(ops, op{opKind(data[0] % uint8(numOpKinds)), data[1]})
	}
	return ops
}

func encodeOps(ops []op) []byte {
	var data []byte
	for _, o := range ops {
		data = append(data, byte(o.kind), o.x)
	}
	return data
}

// model is one table's expected state.
type model struct {
	cfg      Config[uint64, uint64]
	now      eventsim.Time
	vals     map[uint64]uint64
	deadline map[uint64]eventsim.Time
	capacity int
	tickDone int64 // last swept granule: the last that has fully elapsed
	stats    Stats
}

func (m *model) gran() int64 { return int64(m.cfg.TTL/modelSlots + 1) }

// slot is the wheel slot an entry with deadline d sits in.
func (m *model) slot(d eventsim.Time) int64 { return int64(d) / m.gran() % modelSlots }

// afterCursor is how many slots past the sweep cursor s is: 0 for the next
// slot Tick sweeps, modelSlots-1 for the one it swept last.
func (m *model) afterCursor(s int64) int64 {
	return ((s-m.tickDone-1)%modelSlots + modelSlots) % modelSlots
}

func (m *model) touch(k uint64) {
	if m.cfg.TTL > 0 {
		m.deadline[k] = m.now + m.cfg.TTL
	}
}

// canGrow is the growth rule: the doubled slab within MaxEntries, and the
// doubled slab, its index and the index still draining within the budget.
func (m *model) canGrow() bool {
	n := 2 * m.capacity
	if m.cfg.MaxEntries > 0 && n > m.cfg.MaxEntries {
		return false
	}
	wheel := 0
	if m.cfg.TTL > 0 {
		wheel = modelSlots
	}
	return m.cfg.MemBudgetBytes == 0 || n*slotBytes+(2*n+2*m.capacity+wheel)*4 <= m.cfg.MemBudgetBytes
}

// expire is Tick's rule: every passed deadline in a fully elapsed granule
// goes; the granule the clock is in waits for a later Tick.
func (m *model) expire() []kv {
	done := int64(m.now)/m.gran() - 1
	if m.cfg.TTL == 0 || done <= m.tickDone {
		return nil
	}
	var gone []kv
	for k, d := range m.deadline {
		if d <= m.now && int64(d)/m.gran() <= done {
			gone = append(gone, kv{k, m.vals[k]})
		}
	}
	m.tickDone = done
	m.stats.EvictedIdle += uint64(len(gone))
	return gone
}

// firstGranule is the pressure-eviction rule: the victim is a live entry
// whose deadline is in the first populated wheel granule after the sweep
// cursor.
func (m *model) firstGranule() map[uint64]bool {
	best := int64(modelSlots)
	for _, d := range m.deadline {
		best = min(best, m.afterCursor(m.slot(d)))
	}
	victims := map[uint64]bool{}
	for k, d := range m.deadline {
		if m.afterCursor(m.slot(d)) == best {
			victims[k] = true
		}
	}
	return victims
}

func (m *model) remove(k uint64) {
	delete(m.vals, k)
	delete(m.deadline, k)
}

// kv is one entry OnEvict was handed.
type kv struct{ k, v uint64 }

// runProgram applies ops to a fresh table built from cfg and to the model in
// step, and after each step compares what the step returned, the keys
// OnEvict saw, every live key and value (through Range, which moves no
// counter), Len, Cap and the exact Stats, and MemBytes against the budget.
func runProgram(cfg Config[uint64, uint64], capacity int, ops []op) error {
	m := &model{cfg: cfg, vals: map[uint64]uint64{}, deadline: map[uint64]eventsim.Time{}, capacity: capacity, tickDone: -1}
	var evicted []kv
	cfg.Hash = modelHash
	cfg.Clock = func() eventsim.Time { return m.now }
	cfg.OnEvict = func(k uint64, v *uint64) { evicted = append(evicted, kv{k, *v}) }
	tab, err := New(cfg)
	if err != nil {
		return err
	}
	for step, o := range ops {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("step %d %+v: %s", step, o, fmt.Sprintf(format, args...))
		}
		evicted = evicted[:0]
		var wantEvicted []kv
		k := uint64(o.x % modelKeys)
		want, had := m.vals[k]
		switch o.kind {
		case opInsert, opGetCreate:
			var victims map[uint64]bool // pressure eviction: who may go
			wantErr := error(nil)
			if !had && len(m.vals) == m.capacity {
				switch {
				case m.canGrow():
					m.capacity *= 2
					m.stats.Rehashes++
				case cfg.TTL > 0:
					victims = m.firstGranule()
				default:
					wantErr = ErrTableFull
					m.stats.FullDrops++
				}
			}
			v, found, err := tab.Insert(k)
			if !errors.Is(err, wantErr) || found != had || (err == nil) != (v != nil) {
				return fail("Insert = %v, %v, %v; want found=%v err=%v", v, found, err, had, wantErr)
			}
			if victims != nil {
				if len(evicted) != 1 || !victims[evicted[0].k] {
					return fail("pressure evicted %v, want one of %v (first populated granule after the cursor)", evicted, victims)
				}
				victim := evicted[0].k
				wantEvicted = []kv{{victim, m.vals[victim]}}
				m.remove(victim)
				m.stats.EvictedPressure++
			}
			if err != nil {
				break
			}
			if *v != want {
				return fail("Insert value %d, want %d", *v, want)
			}
			if !had {
				m.vals[k] = 0
				m.stats.Inserts++
			}
			m.touch(k)
			if o.kind == opInsert {
				*v = uint64(o.x) + 1
				m.vals[k] = *v
			}
		case opLookup:
			v, ok := tab.Lookup(k)
			m.stats.Lookups++
			if ok != had || ok && *v != want {
				return fail("found %v (%v), want %v (%d)", ok, v, had, want)
			}
			if had {
				m.stats.Hits++
				m.touch(k)
			}
		case opAdvance:
			m.now += eventsim.Time(o.x%16) * modelTTL / 8
			wantEvicted = m.expire()
			if n := tab.Tick(); n != len(wantEvicted) {
				return fail("Tick = %d, want %d", n, len(wantEvicted))
			}
			for _, e := range wantEvicted {
				m.remove(e.k)
			}
		case opDrift:
			m.now += eventsim.Time(o.x%16) * modelTTL / 8
		case opJump:
			m.now += eventsim.Time(1<<32+int64(o.x)) * eventsim.Time(m.gran())
		case opRange:
			stop := int(o.x % 8)
			seen := map[uint64]bool{}
			var bad []uint64 // entries the model does not hold, or visited twice
			tab.Range(func(k uint64, v *uint64) bool {
				if w, ok := m.vals[k]; !ok || *v != w || seen[k] {
					bad = append(bad, k)
				}
				seen[k] = true
				return len(seen) != stop
			})
			wantN := len(m.vals)
			if stop != 0 {
				wantN = min(wantN, stop)
			}
			if len(bad) > 0 || len(seen) != wantN {
				return fail("Range visited %v (wrong: %v), want %d of %v", seen, bad, wantN, m.vals)
			}
		}

		byKey := func(a, b kv) int { return cmp.Compare(a.k, b.k) }
		slices.SortFunc(evicted, byKey)
		slices.SortFunc(wantEvicted, byKey)
		if !slices.Equal(evicted, wantEvicted) {
			return fail("OnEvict saw %v, want %v", evicted, wantEvicted)
		}
		got := map[uint64]uint64{}
		tab.Range(func(k uint64, v *uint64) bool {
			got[k] = *v
			return true
		})
		if tab.Len() != len(m.vals) || !maps.Equal(got, m.vals) {
			return fail("table holds %v (Len %d), model %v", got, tab.Len(), m.vals)
		}
		st := tab.TabStats()
		if int(st.MemBytes) != tab.MemBytes() || cfg.MemBudgetBytes > 0 && tab.MemBytes() > cfg.MemBudgetBytes {
			return fail("MemBytes %d (stats %d) over budget %d", tab.MemBytes(), st.MemBytes, cfg.MemBudgetBytes)
		}
		wantSt := m.stats
		wantSt.Entries, wantSt.Capacity, wantSt.MemBytes = uint64(len(m.vals)), uint64(m.capacity), st.MemBytes
		if st != wantSt || len(tab.slab) != m.capacity {
			return fail("stats %+v (Cap %d), want %+v", st, len(tab.slab), wantSt)
		}
		if st.Hits > st.Lookups {
			return fail("%d hits from %d lookups", st.Hits, st.Lookups)
		}
	}
	return nil
}

// forcedOps is a program every config runs first. Three keys of one hash
// double the table, the first inserted half a TTL before the others; while
// the old index drains, the first expires there (a tombstone) and the other
// two must still be found past it. Then 45 more keys, each followed by
// probes of earlier ones and, every sixth, an eighth of a TTL, so "grow"
// doubles to 64 and drains an index over several inserts while entries
// expire, "budget" pressure-evicts and "nowheel" refuses. Then time: half a
// TTL with a touch, expiry of the untouched, a get-or-create hit, a Range
// cut short, a lap. Last, a clock jump past every 32-bit stamp with touches
// and inserts on the far side before the Tick that expires what was left
// behind.
var forcedOps = func() []op {
	ops := []op{
		{opInsert, 0}, {opAdvance, 4}, {opInsert, 1}, {opInsert, 2},
		{opAdvance, 5}, {opLookup, 0}, {opLookup, 1}, {opLookup, 2}, {opGetCreate, 1},
	}
	for k := uint8(3); k < modelKeys; k++ {
		ops = append(ops, op{opInsert, k}, op{opLookup, k / 2}, op{opLookup, k - 1})
		if k%6 == 0 {
			ops = append(ops, op{opAdvance, 1})
		}
	}
	return append(ops,
		op{opAdvance, 4}, op{opLookup, 10}, op{opGetCreate, 11}, op{opAdvance, 5},
		op{opGetCreate, 10}, op{opRange, 3}, op{opAdvance, 15}, op{opInsert, 22}, op{opRange, 0},
		op{opJump, 3}, op{opLookup, 22}, op{opInsert, 5}, op{opInsert, 6}, op{opAdvance, 0}, op{opRange, 0})
}()

// TestQuickVsModel checks every config against the model: forcedOps, then
// random programs, half of them from an empty table and half after
// forcedOps.
func TestQuickVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, c := range modelConfigs {
		if err := runProgram(c.cfg, c.capacity, forcedOps); err != nil {
			t.Fatalf("%s, forced program: %v", c.name, err)
		}
		for run := 0; run < 200; run++ {
			data := make([]byte, opBytes*maxOps)
			rng.Read(data)
			ops := decodeOps(data)
			if run%2 == 1 {
				ops = append(forcedOps[:len(forcedOps):len(forcedOps)], ops...)
			}
			if err := runProgram(c.cfg, c.capacity, ops); err != nil {
				t.Fatalf("%s, run %d: %v", c.name, run, err)
			}
		}
	}
}

// FuzzFlowtabVsModel runs decoded programs on every config against the
// model.
func FuzzFlowtabVsModel(f *testing.F) {
	f.Add(encodeOps(forcedOps))
	// "grow" has moved all 32 buckets of its old index when key 0 expires;
	// the lookup after must not find key 0's freed slot through the old
	// index.
	drain := []op{{opInsert, 0}, {opAdvance, 4}}
	for k := uint8(1); k < 18; k++ {
		drain = append(drain, op{opInsert, k})
	}
	f.Add(encodeOps(append(drain, op{opAdvance, 5}, op{opLookup, 0})))
	f.Add(encodeOps([]op{{opInsert, 0}, {opAdvance, 4}, {opInsert, 3}, {opInsert, 6}, {opAdvance, 5}, {opLookup, 6}, {opAdvance, 9}, {opInsert, 9}}))
	f.Add(encodeOps([]op{{opGetCreate, 1}, {opAdvance, 6}, {opLookup, 1}, {opAdvance, 6}, {opRange, 0}, {opAdvance, 6}, {opRange, 0}}))
	// "budget" holds 16 keys stamped for one slot when a touch carries key 0's
	// stamp past the cursor's lap: its slot wraps round to the cursor's
	// first while key 0 still sits in the old one, and the next pressure
	// victim must be key 0. Key 1 then does the same after the re-file,
	// and the clock moves on so that new flows land one slot later: once
	// the slot the re-file filled is empty, key 1 is still the victim.
	var wrap []op
	for k := uint8(0); k < 16; k++ {
		wrap = append(wrap, op{opInsert, k})
	}
	f.Add(encodeOps(append(wrap, op{opAdvance, 3}, op{opLookup, 0}, op{opInsert, 16},
		op{opLookup, 1}, op{opDrift, 1}, op{opInsert, 17}, op{opInsert, 18})))
	f.Add(encodeOps([]op{{opInsert, 1}, {opInsert, 2}, {opJump, 0}, {opLookup, 2}, {opInsert, 3}, {opAdvance, 0}, {opJump, 9}, {opAdvance, 1}, {opRange, 0}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		for _, c := range modelConfigs {
			if err := runProgram(c.cfg, c.capacity, ops); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	})
}
