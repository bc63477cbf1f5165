package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// newTwoNodeRig builds the Figure 3 topology: two NUMA nodes, one FPGA on
// each node's PCIe root, a shared IBQ and a TX/RX core pair per node.
func newTwoNodeRig(t *testing.T) *rig {
	return newRig(t, Config{Nodes: 2, FlushTimeout: 5 * eventsim.Microsecond}, revSpec())
}

func TestTwoNodeLocalPlacement(t *testing.T) {
	r := newTwoNodeRig(t)
	// Searching on each node must land on that node's board (NUMA-aware
	// placement, §IV-A2).
	acc0, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	acc1, err := r.rt.SearchByName("rev", 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc0 == acc1 {
		t.Fatal("both nodes resolved the same accelerator instance")
	}
	e0 := r.rt.accs[acc0]
	e1 := r.rt.accs[acc1]
	if e0.route.Primary().FPGA != 0 || e1.route.Primary().FPGA != 1 {
		t.Errorf("placement: node0 -> fpga%d, node1 -> fpga%d", e0.route.Primary().FPGA, e1.route.Primary().FPGA)
	}
}

func TestTwoNodeDataPathsIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	r := newTwoNodeRig(t)
	nf0, _ := r.rt.Register("nf-node0", 0)
	nf1, _ := r.rt.Register("nf-node1", 1)
	acc0, _ := r.rt.SearchByName("rev", 0)
	acc1, _ := r.rt.SearchByName("rev", 1)
	r.settle()

	mk := func(acc AccID, payload string) *mbuf.Mbuf {
		m, err := r.pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		_ = m.AppendBytes([]byte(payload))
		m.AccID = uint16(acc)
		return m
	}
	if _, err := r.rt.SendPackets(nf0, []*mbuf.Mbuf{mk(acc0, "node0-data")}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rt.SendPackets(nf1, []*mbuf.Mbuf{mk(acc1, "node1-data")}); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)

	out := make([]*mbuf.Mbuf, 4)
	n0, _ := r.rt.ReceivePackets(nf0, out)
	if n0 != 1 || !bytes.Equal(out[0].Data(), []byte("atad-0edon")) {
		t.Errorf("node0 got %d pkts, data %q", n0, out[0].Data())
	}
	_ = r.pool.Free(out[0])
	n1, _ := r.rt.ReceivePackets(nf1, out)
	if n1 != 1 || !bytes.Equal(out[0].Data(), []byte("atad-1edon")) {
		t.Errorf("node1 got %d pkts, data %q", n1, out[0].Data())
	}
	_ = r.pool.Free(out[0])

	// Per-node transfer stats are independent.
	ts0, _ := r.rt.Stats(0)
	ts1, _ := r.rt.Stats(1)
	if ts0.PktsPacked != 1 || ts1.PktsPacked != 1 {
		t.Errorf("per-node packed counts %d/%d", ts0.PktsPacked, ts1.PktsPacked)
	}
	if r.pool.InUse() != 0 {
		t.Errorf("leak: %d in use", r.pool.InUse())
	}
}

func TestTwoNodeFallbackToRemoteBoard(t *testing.T) {
	// Node 1's own board is out of service; an NF on node 1 must still
	// resolve the hardware function, on node 0's board (remote placement
	// fallback).
	for _, out := range []struct {
		name string
		take func(*Runtime) (int, error)
	}{
		{"offline", func(rt *Runtime) (int, error) { return rt.OfflineBoard(1) }},
		{"drain", func(rt *Runtime) (int, error) { return rt.DrainBoard(1) }},
	} {
		t.Run(out.name, func(t *testing.T) {
			rt := newTwoNodeRig(t).rt
			if _, err := out.take(rt); err != nil {
				t.Fatal(err)
			}
			acc, err := rt.SearchByName("rev", 1)
			if err != nil {
				t.Fatalf("remote fallback failed: %v", err)
			}
			if rt.accs[acc].route.Primary().FPGA != 0 {
				t.Errorf("resolved to fpga %d", rt.accs[acc].route.Primary().FPGA)
			}
		})
	}
}

func TestTwoNodeMigrationFollowsRoute(t *testing.T) {
	// Cross-node live migration: the accelerator moves from the node-local
	// board to the remote node's board. The NF's IBQ/TX/RX cores stay
	// where the NF registered — packets are still packed by node 0's TX
	// core — but every dispatch after cutover crosses to the node-1 board,
	// because flush consults the routing layer, not the attach-time node.
	r := newTwoNodeRig(t)
	nf, _ := r.rt.Register("xnode", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	e := r.rt.accs[acc]
	if e.route.Primary().FPGA != 0 {
		t.Fatalf("initial placement on board %d, want the node-local 0", e.route.Primary().FPGA)
	}

	mk := func(payload string) *mbuf.Mbuf {
		m, merr := r.pool.Alloc()
		if merr != nil {
			t.Fatal(merr)
		}
		_ = m.AppendBytes([]byte(payload))
		m.AccID = uint16(acc)
		return m
	}
	if _, err := r.rt.SendPackets(nf, []*mbuf.Mbuf{mk("before-move")}); err != nil {
		t.Fatal(err)
	}
	r.settle()

	// Migrate to the node-1 board. The scheduler has only board 1 to
	// offer (board 0 hosts the primary and is excluded).
	board, err := r.rt.Migrate(acc, -1)
	if err != nil {
		t.Fatal(err)
	}
	if board != 1 {
		t.Fatalf("migrated to board %d, want 1", board)
	}
	r.settle()
	if e.route.Primary().FPGA != 1 {
		t.Fatalf("primary on board %d after migration, want 1", e.route.Primary().FPGA)
	}

	if _, err := r.rt.SendPackets(nf, []*mbuf.Mbuf{mk("after-move!")}); err != nil {
		t.Fatal(err)
	}
	r.settle()

	out := make([]*mbuf.Mbuf, 4)
	got, _ := r.rt.ReceivePackets(nf, out)
	if got != 2 {
		t.Fatalf("received %d packets, want 2", got)
	}
	for i := 0; i < got; i++ {
		if out[i].Status != mbuf.StatusOK {
			t.Errorf("packet %d status %v", i, out[i].Status)
		}
		_ = r.pool.Free(out[i])
	}

	// The NF's node-0 transfer path packed both packets; node 1's cores
	// saw none of them — the cross-node hop happens at dispatch, through
	// the route, not by re-homing the NF.
	ts0, _ := r.rt.Stats(0)
	ts1, _ := r.rt.Stats(1)
	if ts0.PktsPacked != 2 || ts0.PktsDistributed != 2 {
		t.Errorf("node0 packed/distributed = %d/%d, want 2/2", ts0.PktsPacked, ts0.PktsDistributed)
	}
	if ts1.PktsPacked != 0 {
		t.Errorf("node1 packed %d packets, want 0", ts1.PktsPacked)
	}
	// And the batches landed on each board in era order: one batch on
	// board 0 before the move, one on board 1 after.
	b0, _, _, _ := r.rt.boards[0].dev.RegionStats(0)
	b1, _, _, _ := r.rt.boards[1].dev.RegionStats(e.route.Primary().Region)
	if b0 != 1 || b1 != 1 {
		t.Errorf("batches per board = %d/%d, want 1/1", b0, b1)
	}
	if r.pool.InUse() != 0 {
		t.Errorf("leak: %d mbufs in use", r.pool.InUse())
	}
}

func TestMultiFPGASameNodeSpillover(t *testing.T) {
	// Two boards on node 0; a module too big to fit twice on one board
	// must spill onto the second board when the first is full.
	big := fpga.ModuleSpec{
		Name: "huge", LUTs: 1000, BRAM: 800, ThroughputBps: 1e9,
		DelayCycles: 1, BitstreamBytes: 1 << 20, New: func() fpga.Module { return reverseModule{} },
	}
	rt := newRig(t, Config{BoardsPerNode: 2}, big).rt
	a1, err := rt.LoadPR("huge", 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := rt.LoadPR("huge", 0)
	if err != nil {
		t.Fatalf("second instance should spill to board 2: %v", err)
	}
	if rt.accs[a1].route.Primary().FPGA == rt.accs[a2].route.Primary().FPGA {
		t.Error("both instances on the same board despite capacity")
	}
	if _, err := rt.LoadPR("huge", 0); !errors.Is(err, ErrCapacity) {
		t.Errorf("third instance: %v", err)
	}
}
