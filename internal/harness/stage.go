package harness

import (
	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/ring"
)

// burstSize is the rx_burst / ring dequeue size of every testbed core.
const burstSize = 32

// stage is the one duty every testbed core has (§V-B, Table IV): pull a
// burst from a NIC queue, a ring or an OBQ, run the NF's per-packet
// function, and hand the burst to a ring, the IBQ or a NIC. Whatever a
// stage does not forward — the NF's verdict said drop, or the sink
// refused it — goes back to the pool and is counted, so pulled =
// forwarded + dropped on every iteration.
type stage struct {
	// src is where the stage pulls from.
	src source
	// proc, when set, is the NF's shallow or full per-packet function.
	proc func(*mbuf.Mbuf) (nf.Verdict, float64)
	// perPkt is the fixed cycle cost of a pulled packet: the I/O and ring
	// operations on both sides of proc.
	perPkt float64
	// push hands the forwarded packets downstream once the core has spent
	// the iteration's cycles, and reports how many the sink took.
	push func([]*mbuf.Mbuf) (accepted int)
	// dropped, when set, counts every packet the stage freed.
	dropped *uint64

	pool *mbuf.Pool
	// One scratch burst is enough: PollLoop runs body, busy time, commit,
	// next body, so out is pushed before pull writes burst again. It holds
	// two bursts because a NIC source pulls one from each of two RX queues.
	burst [2 * burstSize]*mbuf.Mbuf
	out   []*mbuf.Mbuf // this iteration's forwarded packets, a prefix of burst
}

// poll is the body half of an iteration: pull, process, and price it. The
// cycle cost is n*perPkt plus each packet's own cost in pull order; that
// reproduces the sums the hand-written loops used bit for bit only while
// every perPkt and every DHL pre/post cost is integer-valued.
//
//dhl:hotpath
func (s *stage) poll() (pulled int, cycles float64) {
	n := s.src.pull(s.burst[:])
	cycles = float64(n) * s.perPkt
	if s.proc == nil {
		s.out = s.burst[:n]
		return n, cycles
	}
	out := s.burst[:0]
	for _, m := range s.burst[:n] {
		verdict, c := s.proc(m)
		cycles += c
		if verdict != nf.VerdictForward {
			s.drop(m)
			continue
		}
		out = append(out, m)
	}
	s.out = out
	return n, cycles
}

// commit is the other half, run when the cycles are spent.
//
//dhl:hotpath
func (s *stage) commit() {
	if len(s.out) == 0 {
		return
	}
	for _, m := range s.out[s.push(s.out):] {
		s.drop(m)
	}
}

//dhl:hotpath
func (s *stage) drop(m *mbuf.Mbuf) {
	if s.dropped != nil {
		*s.dropped++
	}
	_ = s.pool.Free(m)
}

// source is what a stage pulls from: a NIC port, a ring or an NF's OBQ,
// and the pull that fills buf from it and reports how many packets it got.
// A pull finds nothing until in is produced into, or, for a port, until
// the deadline its empty RxBurst declared: the core's loop watches in
// (eventsim.PollLoop.Watch), as a DPDK lcore polls a fixed set of queues.
type source struct {
	in   eventsim.Input
	pull func(buf []*mbuf.Mbuf) int
}

// run starts one poll loop on c that serves stages in order: every stage
// polls each iteration, the loop is idle only when none of them pulled
// anything, and they commit in the order given (Figure 7's per-port core
// is ingress then egress on one loop). The loop watches each stage's
// source, so it sleeps through whatever else executes.
func (tb *testbed) run(c *eventsim.Core, stages ...*stage) {
	for _, s := range stages {
		s.pool = tb.pool
	}
	commit := func() {
		for _, s := range stages {
			s.commit()
		}
	}
	loop := eventsim.NewPollLoop(tb.sim, c, perf.PollIdleCycles, func() (float64, func()) {
		pulled, cycles := 0, 0.0
		for _, s := range stages {
			n, c := s.poll()
			pulled += n
			cycles += c
		}
		if pulled == 0 {
			return 0, nil
		}
		return cycles, commit
	})
	for _, s := range stages {
		loop.Watch(s.src.in)
	}
	loop.Start()
}

// fromNIC pulls one burst from each RX queue of port and stamps the
// arrival time the TX port measures latency from.
func (tb *testbed) fromNIC(port *netdev.Port) source {
	return source{in: port, pull: func(buf []*mbuf.Mbuf) int {
		got := 0
		for q := 0; q < port.Queues() && got+burstSize <= len(buf); q++ {
			got += port.RxBurst(q, buf[got:got+burstSize])
		}
		now := int64(tb.sim.Now())
		for _, m := range buf[:got] {
			m.RxTimestamp = now
		}
		return got
	}}
}

// toNIC transmits on port, which frees (and counts as TxDropped) what its
// backlog cap refuses: nothing is left for the stage to drop.
func (tb *testbed) toNIC(port *netdev.Port) func([]*mbuf.Mbuf) int {
	return func(pkts []*mbuf.Mbuf) int {
		port.TxBurst(pkts, tb.pool)
		return len(pkts)
	}
}

// nicToRing is the RX I/O core of the pipeline-mode builds: rx_burst,
// then a ring hand-off; what the ring refuses is dropped.
func (tb *testbed) nicToRing(rxPort *netdev.Port, r *ring.Ring[*mbuf.Mbuf], dropped *uint64) *stage {
	return &stage{
		src: tb.fromNIC(rxPort), perPkt: perf.IORxCycles + perf.RingOpCycles,
		push: r.EnqueueBurst, dropped: dropped,
	}
}

// ringToNIC is their TX I/O core.
func (tb *testbed) ringToNIC(r *ring.Ring[*mbuf.Mbuf], txPort *netdev.Port) *stage {
	return &stage{
		src: fromRing(r), perPkt: perf.RingOpCycles + perf.IOTxCycles,
		push: tb.toNIC(txPort),
	}
}

func fromRing(r *ring.Ring[*mbuf.Mbuf]) source {
	return source{in: r, pull: func(buf []*mbuf.Mbuf) int { return r.DequeueBurst(buf[:burstSize]) }}
}

// dhlIngress is the RX + shallow-processing + IBQ duty of a DHL NF's I/O
// core; an IBQ refusal (or a send error) drops the refused packets.
func (tb *testbed) dhlIngress(rt *core.Runtime, app dhlNF, rxPort *netdev.Port, dropped *uint64) *stage {
	return &stage{
		src:    tb.fromNIC(rxPort),
		proc:   app.PreProcess,
		perPkt: perf.IORxCycles,
		push: func(pkts []*mbuf.Mbuf) int {
			acc, err := rt.SendPackets(app.ID(), pkts)
			if err != nil {
				return 0
			}
			return acc
		},
		dropped: dropped,
	}
}

// dhlEgress is the OBQ + post-processing + TX duty. It pulls through
// ReceivePackets, from the NF's private OBQ.
func (tb *testbed) dhlEgress(rt *core.Runtime, app dhlNF, txPort *netdev.Port, dropped *uint64) (*stage, error) {
	obq, err := rt.PrivateOBQ(app.ID())
	if err != nil {
		return nil, err
	}
	return &stage{
		src: source{in: obq, pull: func(buf []*mbuf.Mbuf) int {
			n, err := rt.ReceivePackets(app.ID(), buf[:burstSize])
			if err != nil {
				return 0
			}
			return n
		}},
		proc:    app.PostProcess,
		perPkt:  perf.OBQPollCycles + perf.IOTxCycles,
		push:    tb.toNIC(txPort),
		dropped: dropped,
	}, nil
}
