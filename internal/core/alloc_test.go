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

// TestEventBudgetPipeline64B drives BenchmarkPipeline64B's closed loop the
// hard way for the event engine — the clock stepped 1 us at a time, the
// OBQ polled between steps, so every step starts with both transfer cores
// unsure what changed — and checks it stays allocation-free and costs the
// simulator under ten events per packet. Two cores polling every 28.57 ns
// through a 23 us round trip used to make that about a hundred.
func TestEventBudgetPipeline64B(t *testing.T) {
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
		if n, serr := r.rt.SendPackets(nf, pkts); serr != nil || n != nPkts {
			t.Fatalf("sent %d of %d: %v", n, nPkts, serr)
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
	events, skipped := r.sim.Processed(), r.sim.PollsSkipped()
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Errorf("closed loop allocates %.1f objects per burst, want 0", avg)
	}
	// AllocsPerRun calls cycle once more than it counts, to warm up.
	perPkt := float64(r.sim.Processed()-events) / ((runs + 1) * nPkts)
	t.Logf("%.2f events per packet, %.1f idle polls skipped per packet",
		perPkt, float64(r.sim.PollsSkipped()-skipped)/((runs+1)*nPkts))
	if perPkt >= 10 {
		t.Errorf("%.2f events per packet, want < 10", perPkt)
	}
}
