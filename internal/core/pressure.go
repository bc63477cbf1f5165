package core

// notePressure runs after every IBQ enqueue attempt: it counts the
// refusals in the node's one ledger (TransferStats.IBQRejected) and
// maintains the node's high-water latch: it rises at 3/4 occupancy and
// falls at 1/2. The gap is the hysteresis that keeps the signal from
// flapping batch to batch. A refusal needs no term of its own: the IBQ
// has one owner, so EnqueueBurst fills it before it refuses anything and
// a refused send leaves it full.
//
//dhl:hotpath
func (r *Runtime) notePressure(node, rejected int) {
	r.nodeTx[node].stats.IBQRejected += uint64(rejected)
	q := r.ibqs[node]
	switch qlen, qcap := q.Len(), q.Capacity(); {
	case !r.ibqHot[node] && qlen*4 >= qcap*3:
		r.ibqHot[node] = true
	case r.ibqHot[node] && qlen*2 <= qcap:
		r.ibqHot[node] = false
	}
}

// IBQPressure reports a node's back-pressure state: the lifetime IBQ
// refusal count and the high-water latch. This is the autotuner's
// congestion signal; it is allocation-free.
func (r *Runtime) IBQPressure(node int) (rejected uint64, hot bool) {
	if node < 0 || node >= len(r.ibqs) {
		return 0, false
	}
	return r.nodeTx[node].stats.IBQRejected, r.ibqHot[node]
}
