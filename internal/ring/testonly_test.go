package ring

// Only this package's tests read what follows; the rest of the module
// has no use for it.

// Dequeue removes a single element.
//
//dhl:hotpath
func (r *Ring[T]) Dequeue() (T, bool) {
	var one [1]T
	if r.dequeue(one[:], true) == 1 {
		return one[0], true
	}
	var zero T
	return zero, false
}

// DequeueBulk fills dst completely or not at all, reporting whether the
// dequeue happened.
//
//dhl:hotpath
func (r *Ring[T]) DequeueBulk(dst []T) bool {
	return r.dequeue(dst, true) == len(dst) && len(dst) > 0
}

// EnqueueBulk enqueues all of objs or nothing. It reports whether the
// enqueue happened.
//
//dhl:hotpath
func (r *Ring[T]) EnqueueBulk(objs []T) bool {
	return r.enqueue(objs, true) == len(objs) && len(objs) > 0
}
