// Package ring reimplements the semantics of DPDK's rte_ring: a bounded
// FIFO over a power-of-two array that sacrifices one slot, moves bursts
// all-or-some and refuses what does not fit.
//
// DHL builds its shared input buffer queues (multi-producer,
// single-consumer) and private output buffer queues (single-producer,
// single-consumer) on exactly this structure (paper §IV-A4); the data
// isolation between NFs is a property of these rings, so the reproduction
// keeps rte_ring's mask-indexed slots and its refusal rule rather than
// wrapping a channel.
//
// A Ring is not safe for concurrent use. It belongs to the goroutine that
// drives the simulator (Sim.Run), like mbuf.Pool and the rest of the data
// path: every simulated core, the NIC, the Packer and the Distributor run
// there, so the producers of a shared IBQ take turns and rte_ring's CAS
// loops would never retry. The indices are plain words, and a touch from a
// second goroutine is a data race that the race detector reports. What a
// DPDK ring operation costs the modelled CPU is charged separately
// (perf.RingOpCycles).
package ring

import (
	"errors"
	"fmt"
)

// SyncMode named rte_ring's RING_F_SP_ENQ / RING_F_SC_DEQ variants.
//
// Deprecated: a ring has one owner, so there is no synchronisation to
// select and New ignores the mode. The type and the two constants below
// stay only because the benchmark's ring probe (bench/layers.go) still
// passes one; they go when that probe stops.
type SyncMode int

// The two variants the benchmark's ring probe names.
const (
	// SingleConsumer was rte_ring's MP/SC mode, the shared IBQ's.
	SingleConsumer SyncMode = iota + 1
	// SingleProducerConsumer was rte_ring's SP/SC mode, an OBQ's.
	SingleProducerConsumer
)

// Errors returned by ring constructors.
var (
	// ErrBadCount reports a capacity that is not a power of two (rte_ring
	// imposes the same restriction so that index arithmetic is mask-based).
	ErrBadCount = errors.New("ring: capacity must be a power of two >= 2")
)

// Ring is a bounded FIFO of T.
type Ring[T any] struct {
	name string
	mask uint64 // size-1, also the usable capacity

	// prod and cons count the elements ever enqueued and dequeued; slot
	// i&mask holds the i-th. rte_ring keeps a head (claimed) and a tail
	// (published) per side; with one owner a claim is published in the
	// call that makes it, so one word per side is both.
	prod, cons uint64

	slots []T

	// waker is woken by every burst that enqueues something (OnProduce).
	waker interface{ Wake() }
}

// New creates a ring holding up to size-1 elements (one slot is sacrificed,
// exactly as in rte_ring's default mode). size must be a power of two >= 2.
// A trailing SyncMode is accepted and ignored (see SyncMode).
func New[T any](name string, size int, _ ...SyncMode) (*Ring[T], error) {
	if size < 2 || size&(size-1) != 0 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadCount, size)
	}
	return &Ring[T]{
		name:  name,
		mask:  uint64(size - 1),
		slots: make([]T, size),
	}, nil
}

// MustNew is New but panics on error; for tests and static configuration.
func MustNew[T any](name string, size int) *Ring[T] {
	r, err := New[T](name, size)
	if err != nil {
		panic(err)
	}
	return r
}

// Name reports the ring's name.
func (r *Ring[T]) Name() string { return r.name }

// Capacity reports the usable capacity (size-1).
func (r *Ring[T]) Capacity() int { return int(r.mask) }

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return int(r.prod - r.cons) }

// OnProduce hands the ring w, which every burst that enqueues something
// wakes from then on, and returns the one it held before, which w is to
// wake in turn: a consumer that sleeps until something is put in needs
// nothing from the producers.
func (r *Ring[T]) OnProduce(w interface{ Wake() }) (prev interface{ Wake() }) {
	prev, r.waker = r.waker, w
	return prev
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
	head := r.prod
	n := min(uint64(len(objs)), r.mask-(head-r.cons))
	for i := uint64(0); i < n; i++ {
		r.slots[(head+i)&r.mask] = objs[i]
	}
	r.prod = head + n
	if n != 0 && r.waker != nil {
		r.waker.Wake()
	}
	return int(n)
}

// DequeueBurst fills up to len(dst) elements and returns the count. The
// slots it empties are zeroed, so the ring keeps no reference for the
// collector. Both bursts move element by element: the ring's callers move
// one to a few elements at a time, where a loop beats copy's fixed cost.
//
//dhl:hotpath
func (r *Ring[T]) DequeueBurst(dst []T) int {
	head := r.cons
	n := min(uint64(len(dst)), r.prod-head)
	var zero T
	for i := uint64(0); i < n; i++ {
		idx := (head + i) & r.mask
		dst[i] = r.slots[idx]
		r.slots[idx] = zero
	}
	r.cons = head + n
	return int(n)
}
