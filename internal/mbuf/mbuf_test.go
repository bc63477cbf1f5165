package mbuf

import (
	"errors"
	"testing"
	"testing/quick"
)

func newPool(t *testing.T, n int) *Pool {
	t.Helper()
	p, err := NewPool(PoolConfig{Name: "test", Capacity: n})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolConfigValidation(t *testing.T) {
	if _, err := NewPool(PoolConfig{Capacity: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	p, err := NewPool(PoolConfig{Name: "n", Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "n" || p.Capacity() != 4 {
		t.Errorf("pool metadata wrong: %q %d", p.Name(), p.Capacity())
	}
}

func TestAllocFreeLifecycle(t *testing.T) {
	p := newPool(t, 2)
	a, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if p.Available() != 0 || p.InUse() != 2 {
		t.Errorf("available=%d inuse=%d", p.Available(), p.InUse())
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("exhausted alloc: %v", err)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if p.Available() != 2 || p.InUse() != 0 {
		t.Errorf("available=%d inuse=%d after frees", p.Available(), p.InUse())
	}
	// The failed Alloc took nothing, and a freed mbuf is not freed twice.
	if err := p.Free(a); !errors.Is(err, ErrDoubleFree) || p.InUse() != 0 {
		t.Errorf("second free: %v, inuse=%d", err, p.InUse())
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	p := newPool(t, 1)
	m, _ := p.Alloc()
	if err := p.Free(m); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(m); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("double free: %v", err)
	}
}

func TestForeignMbufRejected(t *testing.T) {
	p1 := newPool(t, 1)
	p2 := newPool(t, 1)
	m, _ := p1.Alloc()
	if err := p2.Free(m); !errors.Is(err, ErrForeignMbuf) {
		t.Errorf("foreign free: %v", err)
	}
	if err := p1.Free(nil); err != nil {
		t.Errorf("nil free: %v", err)
	}
}

// TestRefcounting pins the count's one job, catching a double free: 1
// while allocated, 0 in the pool, and a second Free leaves both the count
// and the free list as they were.
func TestRefcounting(t *testing.T) {
	p := newPool(t, 2)
	m, _ := p.Alloc()
	if int(m.refcnt) != 1 {
		t.Errorf("refcnt %d after Alloc, want 1", int(m.refcnt))
	}
	if err := p.Free(m); err != nil {
		t.Fatal(err)
	}
	if int(m.refcnt) != 0 || p.Available() != 2 {
		t.Errorf("refcnt %d, available %d after Free, want 0 and 2", int(m.refcnt), p.Available())
	}
	if err := p.Free(m); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("second Free: %v", err)
	}
	if int(m.refcnt) != 0 || p.Available() != 2 {
		t.Errorf("refcnt %d, available %d after a double free, want 0 and 2", int(m.refcnt), p.Available())
	}
}

func TestAllocBulkAllOrNothing(t *testing.T) {
	p := newPool(t, 4)
	dst := make([]*Mbuf, 3)
	if err := p.AllocBulk(dst); err != nil {
		t.Fatal(err)
	}
	big := make([]*Mbuf, 2)
	if err := p.AllocBulk(big); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("bulk over capacity: %v", err)
	}
	if p.Available() != 1 {
		t.Errorf("partial bulk leaked: available %d", p.Available())
	}
	if err := p.FreeBulk(dst); err != nil {
		t.Fatal(err)
	}
}

// FreeBulk stops at the first error and keeps what it freed before it: a
// repeat in the batch is a double free, and everything ahead of it is back
// in the pool.
func TestFreeBulkStopsAtDoubleFree(t *testing.T) {
	p := newPool(t, 3)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if err := p.FreeBulk([]*Mbuf{nil, a, b, a}); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("FreeBulk([a, b, a]) = %v, want ErrDoubleFree", err)
	}
	if p.Available() != 2 || p.InUse() != 1 {
		t.Errorf("available %d, in use %d after FreeBulk([a, b, a]), want 2 and 1: a and b freed once", p.Available(), p.InUse())
	}
}

func TestFreeBulkStopsAtForeign(t *testing.T) {
	p := newPool(t, 3)
	other := newPool(t, 1)
	batch := make([]*Mbuf, 4)
	if err := p.AllocBulk(batch[:2]); err != nil {
		t.Fatal(err)
	}
	batch[2], _ = other.Alloc()
	batch[3], _ = p.Alloc()
	if err := p.FreeBulk(batch); !errors.Is(err, ErrForeignMbuf) {
		t.Errorf("FreeBulk with a foreign mbuf at index 2 = %v, want ErrForeignMbuf", err)
	}
	if p.Available() != 2 || int(batch[0].refcnt) != 0 || int(batch[1].refcnt) != 0 || int(batch[3].refcnt) != 1 {
		t.Errorf("available %d, refcounts %d %d _ %d: want exactly indexes 0 and 1 freed",
			p.Available(), int(batch[0].refcnt), int(batch[1].refcnt), int(batch[3].refcnt))
	}
	if int(batch[2].refcnt) != 1 || other.Available() != 0 {
		t.Error("FreeBulk touched the foreign mbuf")
	}
}

func TestAppendPrependTrim(t *testing.T) {
	p := newPool(t, 1)
	m, _ := p.Alloc()
	if m.dataOff != DefaultHeadroom {
		t.Errorf("headroom %d", m.dataOff)
	}
	if err := m.AppendBytes([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	hdr, err := m.Prepend(4)
	if err != nil {
		t.Fatal(err)
	}
	copy(hdr, "HDR:")
	if string(m.Data()) != "HDR:hello world" {
		t.Errorf("data %q", m.Data())
	}
	if err := m.Trim(6); err != nil {
		t.Fatal(err)
	}
	if string(m.Data()) != "HDR:hello" {
		t.Errorf("after trim: %q", m.Data())
	}
	if err := m.Trim(100); !errors.Is(err, ErrNoTailroom) {
		t.Errorf("oversized trim: %v", err)
	}
	if _, err := m.Prepend(DefaultHeadroom + 1); !errors.Is(err, ErrNoHeadroom) {
		t.Errorf("oversized prepend: %v", err)
	}
	if _, err := m.Append(1 << 20); !errors.Is(err, ErrNoTailroom) {
		t.Errorf("oversized append: %v", err)
	}
}

func TestSetLenBounds(t *testing.T) {
	p := newPool(t, 1)
	m, _ := p.Alloc()
	if err := m.SetLen(100); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 100 {
		t.Errorf("len %d", m.Len())
	}
	if err := m.SetLen(-1); err == nil {
		t.Error("negative SetLen accepted")
	}
	if err := m.SetLen(1 << 20); err == nil {
		t.Error("oversized SetLen accepted")
	}
}

func TestResetClearsTags(t *testing.T) {
	p := newPool(t, 1)
	m, _ := p.Alloc()
	m.NFID, m.AccID, m.Port, m.RxTimestamp, m.Userdata = 1, 2, 3, 4, 5
	_ = m.AppendBytes([]byte("x"))
	_ = p.Free(m)
	m2, _ := p.Alloc()
	if m2.NFID != 0 || m2.AccID != 0 || m2.Port != 0 || m2.RxTimestamp != 0 || m2.Userdata != 0 || m2.Len() != 0 {
		t.Errorf("recycled mbuf not reset: %v", m2)
	}
}

func TestBuffersDoNotAlias(t *testing.T) {
	p := newPool(t, 2)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	_ = a.AppendBytes([]byte{0xAA, 0xAA})
	_ = b.AppendBytes([]byte{0xBB, 0xBB})
	if a.Data()[0] != 0xAA || b.Data()[0] != 0xBB {
		t.Error("mbuf buffers alias each other")
	}
}

// TestQuickPoolConservation property-checks that any interleaving of
// alloc/free conserves buffers (no leak, no double-accounting).
func TestQuickPoolConservation(t *testing.T) {
	f := func(ops []bool) bool {
		p, err := NewPool(PoolConfig{Name: "q", Capacity: 8})
		if err != nil {
			return false
		}
		var live []*Mbuf
		for _, alloc := range ops {
			if alloc {
				m, err := p.Alloc()
				if err == nil {
					live = append(live, m)
				} else if len(live) != 8 {
					return false // exhausted while buffers remain
				}
			} else if len(live) > 0 {
				if p.Free(live[len(live)-1]) != nil {
					return false
				}
				live = live[:len(live)-1]
			}
		}
		return p.Available()+len(live) == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
