package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []int{0, 1, 3, 100, -8} {
		if _, err := New[int]("bad", bad, MultiProducerConsumer); err == nil {
			t.Errorf("size %d accepted", bad)
		}
	}
	r, err := New[int]("ok", 8, 0) // zero mode defaults to MPMC
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
	MustNew[int]("bad", 3, SingleProducerConsumer)
}

func TestFIFOSingle(t *testing.T) {
	r := MustNew[int]("fifo", 16, SingleProducerConsumer)
	for i := 0; i < 10; i++ {
		if !r.Enqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if r.Len() != 10 {
		t.Errorf("len %d", r.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok := r.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d: got %d ok=%v", i, v, ok)
		}
	}
	if r.Len() != 0 {
		t.Error("ring not empty")
	}
	if _, ok := r.Dequeue(); ok {
		t.Error("dequeue from empty succeeded")
	}
}

func TestFullRingRejectsEnqueue(t *testing.T) {
	r := MustNew[int]("full", 4, SingleProducerConsumer) // capacity 3
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

func TestBulkAllOrNothing(t *testing.T) {
	r := MustNew[int]("bulk", 8, MultiProducerConsumer) // capacity 7
	if !r.EnqueueBulk([]int{1, 2, 3, 4, 5}) {
		t.Fatal("bulk enqueue failed")
	}
	if r.EnqueueBulk([]int{6, 7, 8}) { // only 2 slots left
		t.Error("bulk enqueue should be all-or-nothing")
	}
	if r.Len() != 5 {
		t.Errorf("len %d after failed bulk", r.Len())
	}
	dst := make([]int, 7)
	if r.DequeueBulk(dst) { // only 5 available
		t.Error("bulk dequeue should fail when short")
	}
	if !r.DequeueBulk(dst[:5]) {
		t.Error("exact bulk dequeue failed")
	}
	if r.EnqueueBulk(nil) {
		t.Error("empty bulk enqueue reported success")
	}
}

func TestBurstPartial(t *testing.T) {
	r := MustNew[int]("burst", 8, MultiProducerConsumer)
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
	r := MustNew[int]("wrap", 4, SingleProducerConsumer)
	next := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !r.Enqueue(next + i) {
				t.Fatal("enqueue")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.Dequeue()
			if !ok || v != next+i {
				t.Fatalf("round %d: got %d want %d", round, v, next+i)
			}
		}
		next += 3
	}
}

func TestPointersReleasedForGC(t *testing.T) {
	r := MustNew[*int]("gc", 4, SingleProducerConsumer)
	v := 42
	r.Enqueue(&v)
	r.Dequeue()
	// After dequeue the slot must not retain the pointer.
	for _, slot := range r.slots {
		if slot != nil {
			t.Fatal("dequeued slot still holds a pointer")
		}
	}
}

// TestConcurrentMPMC verifies no loss and no duplication under real
// goroutine concurrency (the substrate property DHL's data isolation
// rests on).
func TestConcurrentMPMC(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 4000
	)
	r := MustNew[int]("mpmc", 1024, MultiProducerConsumer)
	var wg sync.WaitGroup
	seen := make([]atomic.Int32, producers*perProd)
	var consumed sync.WaitGroup
	done := make(chan struct{})

	for c := 0; c < consumers; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			buf := make([]int, 64)
			for {
				n := r.DequeueBurst(buf)
				for i := 0; i < n; i++ {
					seen[buf[i]].Add(1)
				}
				if n == 0 {
					select {
					case <-done:
						if r.Len() == 0 {
							return
						}
					default:
						runtime.Gosched()
					}
				}
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			base := p * perProd
			for i := 0; i < perProd; {
				if r.Enqueue(base + i) {
					i++
				} else {
					runtime.Gosched()
				}
			}
		}(p)
	}
	wg.Wait()
	close(done)
	consumed.Wait()
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("value %d seen %d times", i, n)
		}
	}
}

// TestConcurrentSPSC stresses the single-producer/single-consumer fast
// path used by the OBQs.
func TestConcurrentSPSC(t *testing.T) {
	const total = 50000
	r := MustNew[int]("spsc", 256, SingleProducerConsumer)
	go func() {
		for i := 0; i < total; {
			if r.Enqueue(i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	next := 0
	buf := make([]int, 32)
	for next < total {
		n := r.DequeueBurst(buf)
		if n == 0 {
			runtime.Gosched()
		}
		for i := 0; i < n; i++ {
			if buf[i] != next {
				t.Fatalf("out of order: got %d want %d", buf[i], next)
			}
			next++
		}
	}
}

// TestQuickFIFOEquivalence property-checks the ring against a plain slice
// queue over arbitrary operation sequences.
func TestQuickFIFOEquivalence(t *testing.T) {
	f := func(ops []uint8) bool {
		r := MustNew[int]("quick", 16, SingleProducerConsumer)
		var model []int
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				okR := r.Enqueue(next)
				okM := len(model) < r.Capacity()
				if okR != okM {
					return false
				}
				if okM {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := r.Dequeue()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return r.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
