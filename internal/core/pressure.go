package core

// notePressure runs after every IBQ enqueue attempt: it counts the
// refusals in the node's one ledger (TransferStats.IBQRejected) and
// maintains the node's high-water latch: it rises at 3/4 occupancy or on
// the first refusal, and falls at 1/2 on a send with none. The gap is the
// hysteresis that keeps the signal from flapping batch to batch.
//
//dhl:hotpath
func (r *Runtime) notePressure(node, rejected int) {
	if rejected > 0 {
		r.nodeTx[node].stats.IBQRejected += uint64(rejected)
	}
	q := r.ibqs[node]
	switch qlen, qcap := q.Len(), q.Capacity(); {
	case !r.ibqHot[node] && (rejected > 0 || qlen*4 >= qcap*3):
		r.ibqHot[node] = true
	case r.ibqHot[node] && rejected == 0 && qlen*2 <= qcap:
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
