package core

import (
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// This file is the explicit IBQ back-pressure surface. The shared IBQ has
// always been bounded — SendPackets returns how many packets the ring
// accepted and the caller owns the rest — but refusals used to be
// invisible to the runtime: the producer freed the overflow into its own
// private counter and the conservation ledger never saw it. Now every
// refusal is attributed (TransferStats.IBQRejected) and signaled
// to the producing NF through a registered pressure callback, and a
// hysteresis high-water latch warns NFs *before* refusals start so they
// can shed or hold load deliberately instead of discovering the full
// queue one burst at a time.

// PressureInfo describes one back-pressure signal delivered to an NF's
// registered callback. It is passed by value — the callback must not
// retain pointers into it (there are none) and must return quickly: it
// runs synchronously on the event-loop goroutine, inside the send that
// triggered it, and must not re-enter SendPackets/TrySendPackets.
type PressureInfo struct {
	// NF is the network function being signaled.
	NF NFID
	// Node is the NUMA node whose shared IBQ is pressured.
	Node int
	// Rejected is how many of the triggering send's packets the IBQ
	// refused (zero for pure watermark crossings).
	Rejected int
	// Pressured reports the node's high-water latch: true while the IBQ
	// sits above 3/4 occupancy, false once it has drained back to 1/2
	// (the falling edge is also delivered, so NFs know when to resume).
	Pressured bool
	// QueueLen and QueueCap are the IBQ's depth and capacity at signal
	// time.
	QueueLen, QueueCap int
}

// RegisterPressure installs fn as the NF's back-pressure callback. The
// callback fires synchronously on the event-loop goroutine whenever a
// send from this NF has packets refused by the shared IBQ, and on every
// high-water rise / low-water fall of the NF's node IBQ (edge-triggered
// with hysteresis: rise at 3/4 occupancy, fall at 1/2). A nil fn removes
// the registration. The callback must not block, allocate on the hot
// path, or re-enter the send path.
func (r *Runtime) RegisterPressure(id NFID, fn func(PressureInfo)) error {
	nf, err := r.nf(id)
	if err != nil {
		return err
	}
	nf.pressure = fn
	return nil
}

// TrySendPackets is the back-pressure-aware DHL_send_packets() variant:
// identical queue semantics to SendPackets (enqueue up to len(pkts),
// return the accepted count, caller keeps ownership of the rest — to
// retry later rather than drop), plus an explicit pressure report:
// pressured is true when the node's IBQ is above its high-water mark or
// refused part of this burst, telling the NF to back off before the
// queue is hard-full. Refusals are attributed to
// TransferStats.IBQRejected and the NF's pressure callback exactly as in
// SendPackets.
func (r *Runtime) TrySendPackets(id NFID, pkts []*mbuf.Mbuf) (accepted int, pressured bool, err error) {
	n, err := r.SendPackets(id, pkts)
	if err != nil {
		return n, false, err
	}
	nf := r.nfs[id-1]
	return n, n < len(pkts) || r.ibqHot[nf.node], nil
}

// notePressure runs after every IBQ enqueue attempt: it attributes
// refusals, maintains the per-node high-water latch (rise at 3/4
// occupancy, fall at 1/2 — the gap is the hysteresis that keeps the
// signal from flapping batch to batch), and delivers the callbacks.
// Refusals always signal the sending NF; watermark edges signal every
// registered NF on the node, because the shared IBQ pressures them all.
// Allocation-free: PressureInfo rides the stack and the callbacks were
// bound at registration.
//
//dhl:hotpath
func (r *Runtime) notePressure(nf *nfEntry, id NFID, rejected int) {
	node := nf.node
	if rejected > 0 {
		r.ibqRejects[node] += uint64(rejected)
		nf.rejected += uint64(rejected)
	}
	q := r.ibqs[node]
	qlen, qcap := q.Len(), q.Capacity()
	switch {
	case !r.ibqHot[node] && (rejected > 0 || qlen*4 >= qcap*3):
		r.ibqHot[node] = true
		r.broadcastPressure(node, qlen, qcap)
		return // the rising edge already signaled the sender
	case r.ibqHot[node] && rejected == 0 && qlen*2 <= qcap:
		r.ibqHot[node] = false
		r.broadcastPressure(node, qlen, qcap)
		return
	}
	if rejected > 0 && nf.pressure != nil {
		nf.pressure(PressureInfo{NF: id, Node: node, Rejected: rejected,
			Pressured: r.ibqHot[node], QueueLen: qlen, QueueCap: qcap})
	}
}

// broadcastPressure delivers a watermark edge to every registered NF on
// the node. Cold relative to the send path: edges fire only on latch
// transitions.
func (r *Runtime) broadcastPressure(node, qlen, qcap int) {
	for i, nf := range r.nfs {
		if nf.closed || nf.node != node || nf.pressure == nil {
			continue
		}
		nf.pressure(PressureInfo{NF: NFID(i + 1), Node: node,
			Pressured: r.ibqHot[node], QueueLen: qlen, QueueCap: qcap})
	}
}

// IBQPressure reports a node's back-pressure state: the lifetime IBQ
// refusal count, the high-water latch, and the queue's current
// depth/capacity. This is the autotuner's (and the control plane's)
// congestion signal; it is allocation-free.
func (r *Runtime) IBQPressure(node int) (rejected uint64, hot bool, qlen, qcap int) {
	if node < 0 || node >= len(r.ibqs) {
		return 0, false, 0, 0
	}
	q := r.ibqs[node]
	return r.ibqRejects[node], r.ibqHot[node], q.Len(), q.Capacity()
}
