package core

import (
	"bytes"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// TestSteadyStateZeroAllocs is the allocation-budget gate: once the
// freelists (batch arena, inflight pool, event heap, mbuf pool) are warm,
// a full Packer -> DMA -> Dispatcher -> module -> DMA -> Distributor burst
// must not touch the heap at all. A regression here means some hot-path
// object escaped its pool.
func TestSteadyStateZeroAllocs(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, err := r.rt.Register("budget", 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	const nPkts = 32
	payload := bytes.Repeat([]byte{0x5A}, 200)
	pkts := make([]*mbuf.Mbuf, nPkts)
	out := make([]*mbuf.Mbuf, 2*nPkts)
	cycle := func() {
		for i := range pkts {
			m, aerr := r.pool.Alloc()
			if aerr != nil {
				t.Fatal(aerr)
			}
			if aerr := m.AppendBytes(payload); aerr != nil {
				t.Fatal(aerr)
			}
			m.AccID = uint16(acc)
			pkts[i] = m
		}
		n, serr := r.rt.SendPackets(nf, pkts)
		if serr != nil {
			t.Fatal(serr)
		}
		for _, m := range pkts[n:] {
			_ = r.pool.Free(m)
		}
		r.sim.Run(r.sim.Now() + 300*eventsim.Microsecond)
		got, _ := r.rt.ReceivePackets(nf, out)
		if got != nPkts {
			t.Fatalf("%d of %d packets returned", got, nPkts)
		}
		for i := 0; i < got; i++ {
			_ = r.pool.Free(out[i])
		}
	}

	// Warm every freelist on the path: staging tables, arena segments,
	// inflight objects, simulator events, poll-loop scratch.
	for i := 0; i < 50; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("steady-state burst allocates %.1f objects, want 0", avg)
	}

	// The arena must have stopped growing: every lease in steady state is
	// served from the freelist, and nothing stays leased between bursts.
	tx := r.rt.nodeTx[0]
	grown := tx.arena.grown
	for i := 0; i < 20; i++ {
		cycle()
	}
	if tx.arena.grown != grown {
		t.Errorf("arena grew %d -> %d segments in steady state", grown, tx.arena.grown)
	}
	if n := tx.arena.outstanding(); n != 0 {
		t.Errorf("%d arena segments leaked between bursts", n)
	}
	if tx.arena.doubleRet != 0 || tx.arena.foreign != 0 {
		t.Errorf("arena counters: doubleRet %d foreign %d", tx.arena.doubleRet, tx.arena.foreign)
	}
	if n := r.pool.InUse(); n != 0 {
		t.Errorf("%d mbufs leaked between bursts", n)
	}
}

// eventBudget drives BenchmarkPipeline64B's closed loop the hard way for
// the event engine — the clock stepped 1 us at a time, the OBQ polled
// between steps — and checks that it stays allocation-free and costs the
// simulator exactly nine events per 32-packet burst: the TX core's dequeue
// and the end of its pack time, its deadline poll and the commit that posts
// the batch, H2C, dispatch and C2H, the RX core's dequeue and its
// distribute. Each transfer core sleeps on the ring it reads, so neither a
// Run entry nor a DMA completion runs a body that has nothing to find; two
// cores polling every 28.57 ns through a 23 us round trip used to make the
// nine about three thousand, and waking them on every event thirty-six.
// send puts one burst on node 0's IBQ.
func eventBudget(t *testing.T, send func(r *rig, nf NFID, pkts []*mbuf.Mbuf) int) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, err := r.rt.Register("budget", 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	const nPkts = 32
	payload := bytes.Repeat([]byte{0xAB}, 64)
	pkts := make([]*mbuf.Mbuf, nPkts)
	out := make([]*mbuf.Mbuf, 2*nPkts)
	cycle := func() {
		for i := range pkts {
			pkts[i] = r.packet(t, nf, acc, payload)
		}
		if n := send(r, nf, pkts); n != nPkts {
			t.Fatalf("sent %d of %d", n, nPkts)
		}
		deadline := r.sim.Now() + 300*eventsim.Microsecond
		for got := 0; got < nPkts; {
			if r.sim.Now() >= deadline {
				t.Fatalf("%d of %d packets returned", got, nPkts)
			}
			r.sim.Run(r.sim.Now() + eventsim.Microsecond)
			n, _ := r.rt.ReceivePackets(nf, out)
			for _, m := range out[:n] {
				_ = r.pool.Free(m)
			}
			got += n
		}
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	const runs = 100
	events, skipped := r.sim.Processed(), r.sim.Stats().PollsSkipped
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Errorf("closed loop allocates %.1f objects per burst, want 0", avg)
	}
	// AllocsPerRun calls cycle once more than it counts, to warm up.
	got := r.sim.Processed() - events
	t.Logf("%d events, %d idle polls skipped in %d bursts", got, r.sim.Stats().PollsSkipped-skipped, runs+1)
	if want := uint64(9 * (runs + 1)); got != want {
		t.Errorf("%d events in %d bursts, want %d: nine per burst", got, runs+1, want)
	}
	if n := r.pool.InUse(); n != 0 {
		t.Errorf("%d mbufs leaked", n)
	}
}

func TestEventBudgetPipeline64B(t *testing.T) {
	eventBudget(t, func(r *rig, nf NFID, pkts []*mbuf.Mbuf) int {
		n, err := r.rt.SendPackets(nf, pkts)
		if err != nil {
			t.Fatal(err)
		}
		return n
	})
}

// TestEventBudgetRawSharedIBQ is the same loop by an NF that never calls
// SendPackets: Table II hands out the ring itself, and a producer that
// enqueues on it between two Run calls passes no facade call that could
// wake the TX core. The core watches the ring's own count, so the burst is
// served all the same, for the same nine events.
func TestEventBudgetRawSharedIBQ(t *testing.T) {
	eventBudget(t, func(r *rig, nf NFID, pkts []*mbuf.Mbuf) int {
		ibq, err := r.rt.SharedIBQ(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pkts {
			m.NFID = uint16(nf)
		}
		return ibq.EnqueueBurst(pkts)
	})
}
