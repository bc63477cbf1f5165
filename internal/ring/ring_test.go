package ring

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []int{0, 1, 3, 100, -8} {
		if _, err := New[int]("bad", bad); err == nil {
			t.Errorf("size %d accepted", bad)
		}
	}
	r, err := New[int]("ok", 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Capacity() != 7 {
		t.Errorf("capacity %d, want size-1", r.Capacity())
	}
	if r.Name() != "ok" {
		t.Errorf("name %q", r.Name())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on bad size")
		}
	}()
	MustNew[int]("bad", 3)
}

// dequeueOne is a DequeueBurst of one element.
func dequeueOne[T any](r *Ring[T]) (T, bool) {
	var one [1]T
	ok := r.DequeueBurst(one[:]) == 1
	return one[0], ok
}

func TestFIFOSingle(t *testing.T) {
	r := MustNew[int]("fifo", 16)
	for i := 0; i < 10; i++ {
		if !r.Enqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if r.Len() != 10 {
		t.Errorf("len %d", r.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok := dequeueOne(r)
		if !ok || v != i {
			t.Fatalf("dequeue %d: got %d ok=%v", i, v, ok)
		}
	}
	if r.Len() != 0 {
		t.Error("ring not empty")
	}
	if _, ok := dequeueOne(r); ok {
		t.Error("dequeue from empty succeeded")
	}
}

func TestFullRingRejectsEnqueue(t *testing.T) {
	r := MustNew[int]("full", 4) // capacity 3
	for i := 0; i < 3; i++ {
		if !r.Enqueue(i) {
			t.Fatalf("enqueue %d", i)
		}
	}
	if r.Enqueue(99) {
		t.Error("enqueue into full ring succeeded")
	}
	if free := r.Capacity() - r.Len(); free != 0 {
		t.Errorf("free %d", free)
	}
}

func TestBurstPartial(t *testing.T) {
	r := MustNew[int]("burst", 8)
	n := r.EnqueueBurst([]int{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if n != 7 {
		t.Errorf("burst enqueued %d, want capacity 7", n)
	}
	dst := make([]int, 10)
	if got := r.DequeueBurst(dst); got != 7 {
		t.Errorf("burst dequeued %d", got)
	}
	for i := 0; i < 7; i++ {
		if dst[i] != i+1 {
			t.Errorf("dst[%d]=%d", i, dst[i])
		}
	}
	if got := r.DequeueBurst(dst); got != 0 {
		t.Errorf("dequeue from empty burst got %d", got)
	}
}

func TestWrapAround(t *testing.T) {
	r := MustNew[int]("wrap", 4)
	next := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !r.Enqueue(next + i) {
				t.Fatal("enqueue")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := dequeueOne(r)
			if !ok || v != next+i {
				t.Fatalf("round %d: got %d want %d", round, v, next+i)
			}
		}
		next += 3
	}
}

func TestPointersReleasedForGC(t *testing.T) {
	r := MustNew[*int]("gc", 4)
	v := 42
	r.Enqueue(&v)
	dequeueOne(r)
	// After dequeue the slot must not retain the pointer.
	for _, slot := range r.slots {
		if slot != nil {
			t.Fatal("dequeued slot still holds a pointer")
		}
	}
}

// TestQuickFIFOEquivalence property-checks the ring against a plain slice
// queue over arbitrary operation sequences: each op enqueues or dequeues a
// burst of 0 to 7 elements (a single Enqueue for one), and the ring must
// move exactly as many as the queue has room or elements for.
func TestQuickFIFOEquivalence(t *testing.T) {
	f := func(ops []uint8) bool {
		r := MustNew[int]("quick", 16)
		var model []int
		next := 0
		buf := make([]int, 8)
		for _, op := range ops {
			n := int(op>>1) % 8
			if op%2 == 0 {
				want := min(n, r.Capacity()-len(model))
				got := 0
				if n == 1 {
					if r.Enqueue(next) {
						got = 1
					}
				} else {
					for i := range buf[:n] {
						buf[i] = next + i
					}
					got = r.EnqueueBurst(buf[:n])
				}
				if got != want {
					return false
				}
				for i := 0; i < got; i++ {
					model = append(model, next+i)
				}
				next += got
			} else {
				got := r.DequeueBurst(buf[:n])
				if got != min(n, len(model)) {
					return false
				}
				for i := 0; i < got; i++ {
					if buf[i] != model[i] {
						return false
					}
				}
				model = model[got:]
			}
		}
		return r.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
