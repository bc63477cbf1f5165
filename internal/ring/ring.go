// Package ring reimplements DPDK's rte_ring: a bounded, lockless,
// multi-producer/multi-consumer FIFO over a power-of-two array.
//
// DHL builds its shared input buffer queues (multi-producer,
// single-consumer) and private output buffer queues (single-producer,
// single-consumer) on exactly this structure (paper §IV-A4); the data
// isolation between NFs is a property of these rings, so the reproduction
// implements the real algorithm — head/tail sequence pairs advanced with
// CAS — rather than wrapping a channel.
package ring

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// SyncMode selects the producer/consumer synchronization variant, matching
// the RING_F_SP_ENQ / RING_F_SC_DEQ flags of rte_ring.
type SyncMode int

// Producer/consumer synchronization variants.
const (
	// MultiProducerConsumer is the default rte_ring mode (MP/MC).
	MultiProducerConsumer SyncMode = iota + 1
	// SingleProducer restricts enqueue to one goroutine (SP/MC).
	SingleProducer
	// SingleConsumer restricts dequeue to one goroutine (MP/SC).
	SingleConsumer
	// SingleProducerConsumer restricts both sides (SP/SC).
	SingleProducerConsumer
)

// Errors returned by ring constructors.
var (
	// ErrBadCount reports a capacity that is not a power of two (rte_ring
	// imposes the same restriction so that index arithmetic is mask-based).
	ErrBadCount = errors.New("ring: capacity must be a power of two >= 2")
)

type headTail struct {
	head atomic.Uint64
	tail atomic.Uint64
	_    [48]byte // pad to a cache line to avoid false sharing
}

// Ring is a bounded lockless FIFO of T.
type Ring[T any] struct {
	name string
	mask uint64
	size uint64
	mode SyncMode

	prod headTail
	cons headTail

	slots []T
}

// New creates a ring holding up to size-1 elements (one slot is sacrificed,
// exactly as in rte_ring's default mode). size must be a power of two >= 2.
func New[T any](name string, size int, mode SyncMode) (*Ring[T], error) {
	if size < 2 || size&(size-1) != 0 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadCount, size)
	}
	if mode == 0 {
		mode = MultiProducerConsumer
	}
	return &Ring[T]{
		name:  name,
		mask:  uint64(size - 1),
		size:  uint64(size),
		mode:  mode,
		slots: make([]T, size),
	}, nil
}

// MustNew is New but panics on error; for tests and static configuration.
func MustNew[T any](name string, size int, mode SyncMode) *Ring[T] {
	r, err := New[T](name, size, mode)
	if err != nil {
		panic(err)
	}
	return r
}

// Name reports the ring's name.
func (r *Ring[T]) Name() string { return r.name }

// Capacity reports the usable capacity (size-1).
func (r *Ring[T]) Capacity() int { return int(r.size - 1) }

// Len reports the number of queued elements (racy under concurrency, exact
// when quiescent).
func (r *Ring[T]) Len() int {
	ct := r.cons.tail.Load()
	pt := r.prod.tail.Load()
	return int(pt - ct)
}

// Produced reports how many elements have ever been enqueued: the producer
// tail, which only grows. A consumer that remembers the value can tell
// later, without dequeuing, whether anything has been put in since.
func (r *Ring[T]) Produced() uint64 { return r.prod.tail.Load() }

// singleProducer reports whether enqueue may skip CAS.
func (r *Ring[T]) singleProducer() bool {
	return r.mode == SingleProducer || r.mode == SingleProducerConsumer
}

// singleConsumer reports whether dequeue may skip CAS.
func (r *Ring[T]) singleConsumer() bool {
	return r.mode == SingleConsumer || r.mode == SingleProducerConsumer
}

// moveProdHead claims up to n slots for enqueue.
//
//dhl:hotpath
func (r *Ring[T]) moveProdHead(n uint64) (oldHead, newHead, claimed uint64) {
	for {
		oldHead = r.prod.head.Load()
		consTail := r.cons.tail.Load()
		free := r.size - 1 - (oldHead - consTail)
		claimed = min(n, free)
		if claimed == 0 {
			return 0, 0, 0
		}
		newHead = oldHead + claimed
		if r.singleProducer() {
			r.prod.head.Store(newHead)
			return oldHead, newHead, claimed
		}
		if r.prod.head.CompareAndSwap(oldHead, newHead) {
			return oldHead, newHead, claimed
		}
	}
}

// moveConsHead claims up to n elements for dequeue.
//
//dhl:hotpath
func (r *Ring[T]) moveConsHead(n uint64) (oldHead, newHead, claimed uint64) {
	for {
		oldHead = r.cons.head.Load()
		prodTail := r.prod.tail.Load()
		claimed = min(n, prodTail-oldHead)
		if claimed == 0 {
			return 0, 0, 0
		}
		newHead = oldHead + claimed
		if r.singleConsumer() {
			r.cons.head.Store(newHead)
			return oldHead, newHead, claimed
		}
		if r.cons.head.CompareAndSwap(oldHead, newHead) {
			return oldHead, newHead, claimed
		}
	}
}

// updateTail publishes a completed claim, waiting for earlier claimants as
// in rte_ring's __rte_ring_update_tail.
//
//dhl:hotpath
func updateTail(ht *headTail, oldVal, newVal uint64, single bool) {
	if !single {
		for ht.tail.Load() != oldVal {
			runtime.Gosched()
		}
	}
	ht.tail.Store(newVal)
}

// Enqueue adds a single element, reporting success: a burst of one.
//
//dhl:hotpath
func (r *Ring[T]) Enqueue(obj T) bool {
	one := [1]T{obj}
	return r.EnqueueBurst(one[:]) == 1
}

// EnqueueBurst enqueues as many of objs as fit and returns the count.
//
//dhl:hotpath
func (r *Ring[T]) EnqueueBurst(objs []T) int {
	oldHead, newHead, n := r.moveProdHead(uint64(len(objs)))
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		r.slots[(oldHead+i)&r.mask] = objs[i]
	}
	updateTail(&r.prod, oldHead, newHead, r.singleProducer())
	return int(n)
}

// DequeueBurst fills up to len(dst) elements and returns the count.
//
//dhl:hotpath
func (r *Ring[T]) DequeueBurst(dst []T) int {
	oldHead, newHead, n := r.moveConsHead(uint64(len(dst)))
	if n == 0 {
		return 0
	}
	var zero T
	for i := uint64(0); i < n; i++ {
		idx := (oldHead + i) & r.mask
		dst[i] = r.slots[idx]
		r.slots[idx] = zero // release references for GC
	}
	updateTail(&r.cons, oldHead, newHead, r.singleConsumer())
	return int(n)
}
