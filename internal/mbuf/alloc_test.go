package mbuf

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestAllocFreeZeroAllocs is the pool's allocation-budget gate: after the
// pool is built, alloc/free churn must never touch the heap — the data
// path's mbuf traffic rides entirely on the preallocated slots and the
// free list.
func TestAllocFreeZeroAllocs(t *testing.T) {
	p := newPool(t, 256)
	bufs := make([]*Mbuf, 64)
	payload := []byte("budget gate payload")
	cycle := func() {
		for i := range bufs {
			m, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.AppendBytes(payload); err != nil {
				t.Fatal(err)
			}
			bufs[i] = m
		}
		for i := range bufs {
			if err := p.Free(bufs[i]); err != nil {
				t.Fatal(err)
			}
			bufs[i] = nil
		}
	}
	cycle() // warm the free list
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("alloc/free churn allocates %.1f objects per cycle, want 0", avg)
	}
	if p.InUse() != 0 {
		t.Errorf("%d mbufs leaked", p.InUse())
	}
}

// TestAllocFreeBulkZeroAllocs is the same gate for the batch calls.
func TestAllocFreeBulkZeroAllocs(t *testing.T) {
	p := newPool(t, 256)
	bufs := make([]*Mbuf, 64)
	cycle := func() {
		if err := p.AllocBulk(bufs); err != nil {
			t.Fatal(err)
		}
		if err := p.FreeBulk(bufs); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("bulk alloc/free churn allocates %.1f objects per cycle, want 0", avg)
	}
	if p.InUse() != 0 {
		t.Errorf("%d mbufs leaked", p.InUse())
	}
}

// heapDelta reports the heap objects and bytes f allocates, with the
// collector off and one P, as testing.AllocsPerRun has it: a collection
// that starts inside f adds objects of the runtime's own. The counters are
// the process's, so another goroutine's allocations land on them too; f
// runs five times, each after an unmeasured setup (nil: none) that gives
// it the same work, and the least of the five is f's own cost.
func heapDelta(setup, f func()) (objects, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	objects, bytes = ^uint64(0), ^uint64(0)
	for range 5 {
		if setup != nil {
			setup()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestPoolHotSlabConstruction pins what a pool costs before it hands
// anything out: the facade's default 16 384 slots used to clear 35.7 MB of
// buffers up front; now the hot slab's 2.2 MB, plus the slots themselves.
func TestPoolHotSlabConstruction(t *testing.T) {
	var p *Pool
	var err error
	objects, bytes := heapDelta(nil, func() { p, err = NewPool(PoolConfig{Name: "test", Capacity: 16384}) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("construction: %d objects, %.1f MB", objects, float64(bytes)/1e6)
	if objects != 4 {
		t.Errorf("construction allocated %d objects, want 4: pool, slots, free list, hot slab", objects)
	}
	if bytes >= 5e6 {
		t.Errorf("construction allocated %.1f MB, want < 5 MB", float64(bytes)/1e6)
	}
	if p.Available() != 16384 {
		t.Errorf("available = %d", p.Available())
	}
}

// TestPoolHotSlabOverflow takes a pool past its hot slab both ways: the
// slot that is not backed yet brings in the whole rest as one more heap
// object, once, and no two buffers share a byte.
func TestPoolHotSlabOverflow(t *testing.T) {
	const capacity = hotSlots + 64
	for _, bulk := range []bool{false, true} {
		var p *Pool
		all := make([]*Mbuf, capacity)
		take := func(ms []*Mbuf) {
			if bulk {
				if err := p.AllocBulk(ms); err != nil {
					t.Fatal(err)
				}
				return
			}
			for i := range ms {
				m, err := p.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				ms[i] = m
			}
		}
		// Every measured step runs on a fresh pool brought to the same point.
		fresh := func() { p = newPool(t, capacity) }
		if objects, _ := heapDelta(fresh, func() { take(all[:hotSlots]) }); objects != 0 {
			t.Errorf("bulk=%v: the hot slab's %d slots cost %d heap objects, want 0", bulk, hotSlots, objects)
		}
		objects, bytes := heapDelta(func() { fresh(); take(all[:hotSlots]) }, func() { take(all[hotSlots:]) })
		if want := uint64(64 * DefaultDataRoom); objects != 1 || bytes < want || bytes > want+want/8 {
			t.Errorf("bulk=%v: overflow allocated %d objects, %d bytes, want 1 object of about %d", bulk, objects, bytes, want)
		}
		if _, err := p.Alloc(); !errors.Is(err, ErrPoolExhausted) {
			t.Errorf("bulk=%v: alloc past capacity: %v", bulk, err)
		}
		// Every buffer, headroom included, is filled with its own slot's
		// mark; an overlap would overwrite a neighbour's.
		mark := func(m *Mbuf) byte { return byte(m.index) ^ byte(m.index>>8) }
		for _, m := range all {
			if len(m.buf) != DefaultDataRoom || cap(m.buf) != DefaultDataRoom {
				t.Fatalf("bulk=%v: slot %d has a %d/%d-byte buffer", bulk, m.index, len(m.buf), cap(m.buf))
			}
			for i := range m.buf {
				m.buf[i] = mark(m)
			}
		}
		for _, m := range all {
			for _, c := range m.buf {
				if c != mark(m) {
					t.Fatalf("bulk=%v: slot %d's buffer was written through another mbuf", bulk, m.index)
				}
			}
		}
		firstPass := func() {
			fresh()
			take(all)
			if err := p.FreeBulk(all); err != nil {
				t.Fatal(err)
			}
		}
		if objects, _ := heapDelta(firstPass, func() { take(all) }); objects != 0 {
			t.Errorf("bulk=%v: a second pass over the whole pool cost %d heap objects, want 0", bulk, objects)
		}
	}
}
