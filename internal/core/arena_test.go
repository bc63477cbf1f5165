package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// failModule errors on every batch — the dispatchDone failure edge.
type failModule struct{}

func (failModule) Configure([]byte) error { return nil }

func (failModule) ProcessBatch(dst, in []byte) ([]byte, error) {
	return dst, errors.New("fail: induced")
}

// emptyModule returns an empty response batch, which the C2H transfer
// rejects with ErrZeroSize — the post-dispatch failure edge.
type emptyModule struct{}

func (emptyModule) Configure([]byte) error { return nil }

func (emptyModule) ProcessBatch(dst, in []byte) ([]byte, error) {
	return dst, nil
}

// checkNoLeaks asserts the invariant every failure path must restore: no
// arena segment leased out, no double or foreign returns, no mbuf held.
func checkNoLeaks(t *testing.T, r *rig) {
	t.Helper()
	tx := r.rt.nodeTx[0]
	if n := tx.arena.outstanding(); n != 0 {
		t.Errorf("%d arena segments leaked", n)
	}
	if tx.arena.doubleRet != 0 {
		t.Errorf("%d double returns", tx.arena.doubleRet)
	}
	if tx.arena.foreign != 0 {
		t.Errorf("%d foreign returns", tx.arena.foreign)
	}
	if n := r.pool.InUse(); n != 0 {
		t.Errorf("%d mbufs leaked", n)
	}
}

// sendBurst pushes n packets tagged for acc and runs the sim long enough
// for every flush, DMA round trip and completion to drain.
func sendBurst(t *testing.T, r *rig, nf NFID, acc AccID, n int) {
	t.Helper()
	pkts := make([]*mbuf.Mbuf, n)
	for i := range pkts {
		pkts[i] = r.packet(t, nf, acc, bytes.Repeat([]byte{0x11}, 128))
	}
	sent, err := r.rt.SendPackets(nf, pkts)
	if err != nil || sent != n {
		t.Fatalf("send: %d of %d, %v", sent, n, err)
	}
	r.sim.Run(r.sim.Now() + 500*eventsim.Microsecond)
}

// TestArenaDispatchErrorReleasesBuffers unloads the region behind the
// runtime's back so Dispatch fails synchronously after the H2C transfer:
// the inflight's fail edge must free the originals and both segments.
func TestArenaDispatchErrorReleasesBuffers(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("victim", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	if err := r.dev.Unload(r.rt.accs[acc].route.Primary().Region); err != nil {
		t.Fatal(err)
	}

	sendBurst(t, r, nf, acc, 8)
	st, _ := r.rt.Stats(0)
	if st.DispatchErrors == 0 {
		t.Error("dispatch against unloaded region did not count as an error")
	}
	if got, _ := r.rt.ReceivePackets(nf, make([]*mbuf.Mbuf, 16)); got != 0 {
		t.Errorf("%d packets delivered from a failed dispatch", got)
	}
	checkNoLeaks(t, r)
}

// TestArenaModuleErrorReleasesBuffers drives the asynchronous module
// failure edge (dispatchDone with err != nil).
func TestArenaModuleErrorReleasesBuffers(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
		moduleSpec("boom", func() fpga.Module { return failModule{} }))
	nf, _ := r.rt.Register("victim", 0)
	acc, err := r.rt.SearchByName("boom", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	sendBurst(t, r, nf, acc, 8)
	st, _ := r.rt.Stats(0)
	if st.DispatchErrors == 0 {
		t.Error("module failure did not count as a dispatch error")
	}
	checkNoLeaks(t, r)
}

// TestArenaEmptyResponseReleasesBuffers drives the C2H ErrZeroSize edge:
// the module succeeds but produces nothing to transfer back.
func TestArenaEmptyResponseReleasesBuffers(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
		moduleSpec("void", func() fpga.Module { return emptyModule{} }))
	nf, _ := r.rt.Register("victim", 0)
	acc, err := r.rt.SearchByName("void", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	sendBurst(t, r, nf, acc, 8)
	st, _ := r.rt.Stats(0)
	if st.DispatchErrors == 0 {
		t.Error("zero-size C2H did not count as a dispatch error")
	}
	checkNoLeaks(t, r)
}

// TestArenaUnknownAccFlushDrops stages packets for an acc_id the runtime
// never issued: flush must free them and return the staged segment.
func TestArenaUnknownAccFlushDrops(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond})
	nf, _ := r.rt.Register("victim", 0)
	r.settle()

	sendBurst(t, r, nf, AccID(99), 8)
	checkNoLeaks(t, r)
}

// TestArenaCompletionRingDropFails jams the RX completion ring and hands
// c2hDone a batch: the drop must fail the inflight, freeing its mbufs and
// segments rather than stranding them on a ring nobody drains.
func TestArenaCompletionRingDropFails(t *testing.T) {
	r := newRig(t, Config{})
	r.settle()
	r.rt.StopCores(0)
	tx := r.rt.nodeTx[0]
	rx := r.rt.nodeRx[0]

	filler := tx.getInflight()
	for rx.completions.Enqueue(filler) {
	}

	ib := tx.getInflight()
	ib.buf = tx.arena.lease()
	ib.outSeg = tx.arena.lease()
	ib.out = ib.outSeg
	m, err := r.pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	ib.meta = append(ib.meta, m)
	ib.c2hDone()

	if rx.stats.CompletionDrops != 1 {
		t.Errorf("completion drops %d, want 1", rx.stats.CompletionDrops)
	}
	// Drain the jammed ring before the leak check: the filler entries are
	// all the same pooled object and hold no buffers.
	scratch := make([]*inflight, 64)
	for rx.completions.DequeueBurst(scratch) > 0 {
	}
	checkNoLeaks(t, r)
}

// TestArenaCorruptBatchFreesRemainder hands the Distributor a response
// batch whose framing breaks mid-way: the matched prefix is delivered,
// every unmatched original is freed, and the segments return.
func TestArenaCorruptBatchFreesRemainder(t *testing.T) {
	r := newRig(t, Config{})
	nf, _ := r.rt.Register("victim", 0)
	r.settle()
	r.rt.StopCores(0)
	tx := r.rt.nodeTx[0]
	rx := r.rt.nodeRx[0]

	ib := tx.getInflight()
	ib.buf = tx.arena.lease()
	ib.outSeg = tx.arena.lease()
	var aerr error
	ib.outSeg, aerr = dhlproto.AppendRecordFit(ib.outSeg, uint16(nf), 1, []byte("good record"))
	if aerr != nil {
		t.Fatal(aerr)
	}
	// Truncated header: three stray bytes after the valid record.
	ib.outSeg = append(ib.outSeg, 0xde, 0xad, 0xbe)
	ib.out = ib.outSeg
	for i := 0; i < 3; i++ {
		m, err := r.pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		m.NFID = uint16(nf)
		ib.meta = append(ib.meta, m)
	}
	rx.distribute(ib)

	out := make([]*mbuf.Mbuf, 8)
	got, _ := r.rt.ReceivePackets(nf, out)
	if got != 1 {
		t.Fatalf("delivered %d records from the valid prefix, want 1", got)
	}
	if string(out[0].Data()) != "good record" {
		t.Errorf("delivered payload %q", out[0].Data())
	}
	_ = r.pool.Free(out[0])
	checkNoLeaks(t, r)
}

// TestArenaReturnPolicing exercises the arena's self-defence counters
// directly: double returns and foreign buffers are refused and counted,
// nil returns are ignored.
func TestArenaReturnPolicing(t *testing.T) {
	a := newBatchArena(512)
	seg := a.lease()
	a.ret(seg)
	a.ret(seg)
	if a.doubleRet != 1 {
		t.Errorf("double return not detected: %d", a.doubleRet)
	}
	if len(a.free) != 1 {
		t.Errorf("freelist length %d after double return, want 1", len(a.free))
	}
	a.ret(make([]byte, 0, 99))
	if a.foreign != 1 {
		t.Errorf("foreign buffer not detected: %d", a.foreign)
	}
	a.ret(nil)
	if a.foreign != 1 || a.doubleRet != 1 {
		t.Error("nil return must be a no-op")
	}
	if a.outstanding() != 0 {
		t.Errorf("outstanding %d, want 0", a.outstanding())
	}
	// A reallocated (escaped) segment no longer has the arena's capacity
	// and must be refused, not readopted.
	seg2 := a.lease()
	seg2 = append(seg2, make([]byte, 2*512+1)...)
	a.ret(seg2)
	if a.foreign != 2 {
		t.Errorf("escaped segment not counted foreign: %d", a.foreign)
	}
	if a.outstanding() != 1 {
		t.Errorf("outstanding %d after escape, want 1", a.outstanding())
	}
}
