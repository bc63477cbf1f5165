package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/placement"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// reverseModule reverses each record payload — cheap, observable
// processing for data-path tests.
type reverseModule struct{}

func (reverseModule) Configure([]byte) error { return nil }

func (reverseModule) ProcessBatch(dst, in []byte) ([]byte, error) {
	var cur dhlproto.Cursor
	cur.SetBatch(in)
	var rec dhlproto.Record
	for {
		ok, err := cur.Next(&rec)
		if err != nil || !ok {
			return dst, err
		}
		dst, err = dhlproto.AppendRecordHeader(dst, rec.NFID, rec.AccID, len(rec.Payload))
		if err != nil {
			return dst, err
		}
		start := len(dst)
		dst = append(dst, rec.Payload...)
		for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
			dst[i], dst[j] = dst[j], dst[i]
		}
	}
}

// hijackModule maliciously rewrites every record's nf_id to 1 — used to
// verify the Distributor's isolation cross-check.
type hijackModule struct{}

func (hijackModule) Configure([]byte) error { return nil }

func (hijackModule) ProcessBatch(dst, in []byte) ([]byte, error) {
	err := dhlproto.Walk(in, func(r dhlproto.Record) error {
		var aerr error
		dst, aerr = dhlproto.AppendRecord(dst, 1, r.AccID, r.Payload)
		return aerr
	})
	return dst, err
}

func moduleSpec(name string, factory func() fpga.Module) fpga.ModuleSpec {
	return fpga.ModuleSpec{
		Name: name, LUTs: 1000, BRAM: 8, ThroughputBps: 50e9,
		DelayCycles: 10, BitstreamBytes: 1 << 20, New: factory,
	}
}

type rig struct {
	sim  *eventsim.Sim
	pool *mbuf.Pool
	rt   *Runtime
	dev  *fpga.Device
}

// newRig builds a runtime on cfg's platform (by default one board on one
// node) over a fresh simulation and a 1024-mbuf pool, with specs in the
// module database; dev is board 0.
func newRig(t testing.TB, cfg Config, specs ...fpga.ModuleSpec) *rig {
	return newPoolRig(t, cfg, 1024, specs...)
}

func newPoolRig(t testing.TB, cfg Config, poolCap int, specs ...fpga.ModuleSpec) *rig {
	t.Helper()
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "rig", Capacity: poolCap})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sim, cfg.Pool = sim, pool
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if err := rt.RegisterModule(s); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{sim: sim, pool: pool, rt: rt, dev: rt.boards[0].dev}
}

func (r *rig) settle() { r.sim.Run(r.sim.Now() + 50*eventsim.Millisecond) }

// fillOBQ tops nf's OBQ up with filler packets until room slots are left
// free, so a burst of more than room deliveries overruns it. The fillers
// come out of ReceivePackets ahead of what arrives after them.
func (r *rig) fillOBQ(t *testing.T, nf NFID, room int) {
	t.Helper()
	q := r.rt.nfs[nf-1].obq
	for q.Len() < q.Capacity()-room {
		if !q.Enqueue(r.packet(t, nf, 0, []byte("filler"))) {
			t.Fatalf("NF %d's OBQ refused a filler at %d of %d", nf, q.Len(), q.Capacity())
		}
	}
}

func (r *rig) packet(t *testing.T, nf NFID, acc AccID, payload []byte) *mbuf.Mbuf {
	t.Helper()
	m, err := r.pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendBytes(payload); err != nil {
		t.Fatal(err)
	}
	m.AccID = uint16(acc)
	_ = nf // SendPackets stamps NFID
	return m
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewRuntime(Config{}); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := NewRuntime(Config{Sim: eventsim.New()}); err == nil {
		t.Error("nil pool accepted")
	}
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "cfg", Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(Config{Sim: eventsim.New(), Pool: pool, BoardsPerNode: -1}); err == nil {
		t.Error("negative board count accepted")
	}
	if _, err := NewRuntime(Config{Sim: eventsim.New(), BatchBytes: MinBatchBytes - 1}); !errors.Is(err, ErrBadBatchConfig) {
		t.Errorf("BatchBytes below MinBatchBytes: %v", err)
	}
}

func TestNewRuntimeBuildsNodeMajorFleet(t *testing.T) {
	// Nodes 2 × BoardsPerNode 2: board ids run node-major, each board is
	// its own device on its node, and each node has its transfer cores.
	r := newRig(t, Config{Nodes: 2, BoardsPerNode: 2})
	table := r.rt.PlacementTable()
	if len(table) != 4 {
		t.Fatalf("%d boards, want 4", len(table))
	}
	for b, info := range table {
		if info.Board != b || info.DeviceID != b || info.Node != b/2 {
			t.Errorf("board %d: id %d device %d node %d, want %d %d %d",
				b, info.Board, info.DeviceID, info.Node, b, b, b/2)
		}
		dev, err := r.rt.Device(b)
		if err != nil || dev.ID() != b || dev.Node() != b/2 {
			t.Errorf("Device(%d) = %v, %v", b, dev, err)
		}
	}
	if _, err := r.rt.Device(4); !errors.Is(err, placement.ErrUnknownBoard) {
		t.Errorf("Device(4): %v", err)
	}
	for node := 0; node < 2; node++ {
		if _, err := r.rt.Stats(node); err != nil {
			t.Errorf("Stats(%d): %v", node, err)
		}
	}
	if _, err := r.rt.Stats(2); err == nil {
		t.Error("Stats(2) on a two-node runtime succeeded")
	}
}

func TestRegisterAndQueues(t *testing.T) {
	r := newRig(t, Config{})
	id, err := r.rt.Register("nf-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first nf_id %d", id)
	}
	if _, err := r.rt.Register("nf-b", 5); err == nil {
		t.Error("bad node accepted")
	}
	if _, err := r.rt.SharedIBQ(0); err != nil {
		t.Errorf("shared IBQ: %v", err)
	}
	if _, err := r.rt.SharedIBQ(9); err == nil {
		t.Error("bad node IBQ accepted")
	}
	if _, err := r.rt.PrivateOBQ(id); err != nil {
		t.Errorf("private OBQ: %v", err)
	}
	if _, err := r.rt.PrivateOBQ(42); !errors.Is(err, ErrUnknownNF) {
		t.Errorf("unknown OBQ: %v", err)
	}
}

func TestModuleDBAndSearch(t *testing.T) {
	r := newRig(t, Config{}, moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	if err := r.rt.RegisterModule(moduleSpec("rev", nil)); !errors.Is(err, ErrDuplicateHF) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := r.rt.SearchByName("nonexistent", 0); !errors.Is(err, ErrUnknownHF) {
		t.Errorf("unknown hf: %v", err)
	}
	acc1, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	acc2, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc1 != acc2 {
		t.Errorf("repeat search returned new acc: %d vs %d", acc1, acc2)
	}
	if len(r.rt.ModuleDB()) != 1 {
		t.Errorf("module db: %v", r.rt.ModuleDB())
	}
	if len(r.rt.HFTable()) != 1 {
		t.Errorf("hf table: %v", r.rt.HFTable())
	}
}

func TestAccConfigurePendingAppliedAfterPR(t *testing.T) {
	configured := make(chan []byte, 1)
	spec := fpga.ModuleSpec{
		Name: "cfg-probe", LUTs: 100, BRAM: 1, ThroughputBps: 1e9,
		DelayCycles: 1, BitstreamBytes: 1 << 20,
		New: func() fpga.Module { return &probeModule{configured: configured} },
	}
	r := newRig(t, Config{}, spec)
	acc, err := r.rt.SearchByName("cfg-probe", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Region is still reconfiguring: blob must be queued, then applied.
	if err := r.rt.AccConfigure(acc, []byte("deferred")); err != nil {
		t.Fatal(err)
	}
	if err := r.rt.AccConfigure(99, nil); !errors.Is(err, ErrUnknownAcc) {
		t.Errorf("unknown acc: %v", err)
	}
	r.settle()
	select {
	case got := <-configured:
		if string(got) != "deferred" {
			t.Errorf("configured with %q", got)
		}
	default:
		t.Error("pending configuration never applied")
	}
	// After load, configuration goes straight through.
	if err := r.rt.AccConfigure(acc, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	if string(<-configured) != "direct" {
		t.Error("direct configuration lost")
	}
}

type probeModule struct{ configured chan []byte }

func (p *probeModule) Configure(b []byte) error {
	p.configured <- append([]byte(nil), b...)
	return nil
}

func (p *probeModule) ProcessBatch(dst, in []byte) ([]byte, error) {
	return append(dst, in...), nil
}

func TestEndToEndDataPath(t *testing.T) {
	r := newRig(t, Config{}, moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("nf", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	pkts := make([]*mbuf.Mbuf, 10)
	for i := range pkts {
		pkts[i] = r.packet(t, nf, acc, []byte(fmt.Sprintf("payload-%02d", i)))
	}
	n, err := r.rt.SendPackets(nf, pkts)
	if err != nil || n != 10 {
		t.Fatalf("sent %d err %v", n, err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)

	out := make([]*mbuf.Mbuf, 16)
	got, err := r.rt.ReceivePackets(nf, out)
	if err != nil || got != 10 {
		t.Fatalf("received %d err %v", got, err)
	}
	for i := 0; i < got; i++ {
		want := []byte(fmt.Sprintf("payload-%02d", i))
		for l, r := 0, len(want)-1; l < r; l, r = l+1, r-1 {
			want[l], want[r] = want[r], want[l]
		}
		if !bytes.Equal(out[i].Data(), want) {
			t.Errorf("pkt %d: got %q want %q", i, out[i].Data(), want)
		}
		if out[i].NFID != uint16(nf) {
			t.Errorf("pkt %d nf_id %d", i, out[i].NFID)
		}
		_ = r.pool.Free(out[i])
	}
	if r.pool.InUse() != 0 {
		t.Errorf("pool leak: %d in use", r.pool.InUse())
	}
	ts, _ := r.rt.Stats(0)
	if ts.PktsPacked != 10 || ts.PktsDistributed != 10 || ts.NFIDMismatches != 0 || ts.DropOBQFull != 0 {
		t.Errorf("transfer stats %+v", ts)
	}
}

func TestTwoNFsSameAcceleratorIsolated(t *testing.T) {
	r := newRig(t, Config{}, moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nfA, _ := r.rt.Register("nf-a", 0)
	nfB, _ := r.rt.Register("nf-b", 0)
	acc, _ := r.rt.SearchByName("rev", 0)
	r.settle()

	var aPkts, bPkts []*mbuf.Mbuf
	for i := 0; i < 8; i++ {
		aPkts = append(aPkts, r.packet(t, nfA, acc, []byte(fmt.Sprintf("AAAA-%d", i))))
		bPkts = append(bPkts, r.packet(t, nfB, acc, []byte(fmt.Sprintf("BBBB-%d", i))))
	}
	if _, err := r.rt.SendPackets(nfA, aPkts); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rt.SendPackets(nfB, bPkts); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)

	out := make([]*mbuf.Mbuf, 16)
	nA, _ := r.rt.ReceivePackets(nfA, out)
	if nA != 8 {
		t.Fatalf("nf-a received %d", nA)
	}
	for i := 0; i < nA; i++ {
		if !bytes.Contains(out[i].Data(), []byte("AAAA")) {
			t.Errorf("nf-a got foreign payload %q", out[i].Data())
		}
		_ = r.pool.Free(out[i])
	}
	nB, _ := r.rt.ReceivePackets(nfB, out)
	if nB != 8 {
		t.Fatalf("nf-b received %d", nB)
	}
	for i := 0; i < nB; i++ {
		if !bytes.Contains(out[i].Data(), []byte("BBBB")) {
			t.Errorf("nf-b got foreign payload %q", out[i].Data())
		}
		_ = r.pool.Free(out[i])
	}
	ts, _ := r.rt.Stats(0)
	if ts.NFIDMismatches != 0 {
		t.Errorf("mismatches %d", ts.NFIDMismatches)
	}
}

func TestHijackingModuleCannotCrossDeliver(t *testing.T) {
	r := newRig(t, Config{}, moduleSpec("hijack", func() fpga.Module { return hijackModule{} }))
	nfA, _ := r.rt.Register("victim", 0) // nf_id 1, the hijack target
	nfB, _ := r.rt.Register("sender", 0)
	acc, _ := r.rt.SearchByName("hijack", 0)
	r.settle()

	pkts := []*mbuf.Mbuf{r.packet(t, nfB, acc, []byte("secret-of-b"))}
	if _, err := r.rt.SendPackets(nfB, pkts); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)

	out := make([]*mbuf.Mbuf, 4)
	if n, _ := r.rt.ReceivePackets(nfA, out); n != 0 {
		t.Errorf("victim NF received %d hijacked packets", n)
	}
	ts, _ := r.rt.Stats(0)
	if ts.NFIDMismatches == 0 {
		t.Error("hijack not detected")
	}
	if r.pool.InUse() != 0 {
		t.Errorf("hijacked packets leaked: %d in use", r.pool.InUse())
	}
	_ = nfA
}

func TestUnregisteredNFPacketsDiscarded(t *testing.T) {
	r := newRig(t, Config{}, moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("ephemeral", 0)
	acc, _ := r.rt.SearchByName("rev", 0)
	r.settle()

	pkts := []*mbuf.Mbuf{r.packet(t, nf, acc, []byte("in flight"))}
	if _, err := r.rt.SendPackets(nf, pkts); err != nil {
		t.Fatal(err)
	}
	if err := r.rt.Unregister(nf); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)
	if _, err := r.rt.ReceivePackets(nf, make([]*mbuf.Mbuf, 4)); !errors.Is(err, ErrNFClosed) {
		t.Errorf("receive after unregister: %v", err)
	}
	if _, err := r.rt.SendPackets(nf, nil); !errors.Is(err, ErrNFClosed) {
		t.Errorf("send after unregister: %v", err)
	}
	if r.pool.InUse() != 0 {
		t.Errorf("in-flight packets of dead NF leaked: %d", r.pool.InUse())
	}
}

// TestUnregisterCountsParkedPackets unregisters an NF whose OBQ still
// holds delivered packets: they are freed and counted DropNFClosed, so
// the delivery identity closes from what the NF received.
func TestUnregisterCountsParkedPackets(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("leaver", 0)
	acc, _ := r.rt.SearchByName("rev", 0)
	r.settle()

	sendBurst(t, r, nf, acc, 16)
	out := make([]*mbuf.Mbuf, 5)
	received, err := r.rt.ReceivePackets(nf, out)
	if err != nil || received != 5 {
		t.Fatalf("received %d, %v; want 5 of 16", received, err)
	}
	for _, m := range out {
		_ = r.pool.Free(m)
	}
	if err := r.rt.Unregister(nf); err != nil {
		t.Fatal(err)
	}
	s, _ := r.rt.Stats(0)
	if s.DropNFClosed != 11 {
		t.Errorf("DropNFClosed = %d, want the 11 parked packets", s.DropNFClosed)
	}
	if got := uint64(received) + s.DropUnknownNF + s.DropNFClosed + s.DropOBQFull; s.PktsDistributed != got {
		t.Errorf("PktsDistributed %d != received + drops %d: %+v", s.PktsDistributed, got, s)
	}
	if r.pool.InUse() != 0 {
		t.Errorf("parked packets leaked: %d in use", r.pool.InUse())
	}
}

// TestRegisterRefusesLiveName holds a name to one live NF: the OBQ is
// named after it, and a second holder would put two identical
// dhl_ring_occupancy series in one scrape. Unregister frees the name.
func TestRegisterRefusesLiveName(t *testing.T) {
	tel := telemetry.New(64)
	r := newRig(t, Config{Telemetry: tel})
	series := func() int {
		n := 0
		for _, g := range tel.Snapshot().Gauges {
			if g.Name == "dhl_ring_occupancy" && g.Labels == `ring="obq-fw"` {
				n++
			}
		}
		return n
	}
	first, err := r.rt.Register("fw", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.rt.Register("fw", 0); !errors.Is(err, ErrDuplicateNF) {
		t.Fatalf("second live \"fw\": %v, want ErrDuplicateNF", err)
	}
	if n := series(); n != 1 {
		t.Fatalf("%d obq-fw series, want 1", n)
	}
	if err := r.rt.Unregister(first); err != nil {
		t.Fatal(err)
	}
	if n := series(); n != 0 {
		t.Fatalf("%d obq-fw series after unregister, want 0", n)
	}
	second, err := r.rt.Register("fw", 0)
	if err != nil || second == first {
		t.Fatalf("re-register after unregister: id %d (first %d), %v", second, first, err)
	}
	if n := series(); n != 1 {
		t.Fatalf("%d obq-fw series after re-register, want 1", n)
	}
}

func TestFlushByTimeoutAndBatchStats(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("nf", 0)
	acc, _ := r.rt.SearchByName("rev", 0)
	r.settle()

	// 2 small packets: far below 6 KB, must flush via the deadline.
	pkts := []*mbuf.Mbuf{
		r.packet(t, nf, acc, []byte("tiny-1")),
		r.packet(t, nf, acc, []byte("tiny-2")),
	}
	if _, err := r.rt.SendPackets(nf, pkts); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)
	out := make([]*mbuf.Mbuf, 4)
	if n, _ := r.rt.ReceivePackets(nf, out); n != 2 {
		t.Fatalf("timeout flush delivered %d", n)
	}
	for i := 0; i < 2; i++ {
		_ = r.pool.Free(out[i])
	}
	ts, _ := r.rt.Stats(0)
	if ts.FlushByTimeout == 0 {
		t.Errorf("no timeout flushes recorded: %+v", ts)
	}
	if ts.FlushBySize != 0 {
		t.Errorf("unexpected size flushes: %+v", ts)
	}
}

func TestFlushBySizeWhenBatchFills(t *testing.T) {
	r := newRig(t, Config{BatchBytes: 1024},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("nf", 0)
	acc, _ := r.rt.SearchByName("rev", 0)
	r.settle()

	var pkts []*mbuf.Mbuf
	for i := 0; i < 20; i++ {
		pkts = append(pkts, r.packet(t, nf, acc, bytes.Repeat([]byte{byte(i)}, 200)))
	}
	if _, err := r.rt.SendPackets(nf, pkts); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)
	ts, _ := r.rt.Stats(0)
	if ts.FlushBySize == 0 {
		t.Errorf("no size-triggered flushes: %+v", ts)
	}
	out := make([]*mbuf.Mbuf, 32)
	if n, _ := r.rt.ReceivePackets(nf, out); n != 20 {
		t.Errorf("delivered %d of 20", n)
	} else {
		for i := 0; i < n; i++ {
			_ = r.pool.Free(out[i])
		}
	}
}

func TestCapacityExhaustionAcrossRegions(t *testing.T) {
	// A module so BRAM-hungry only two instances fit.
	big := fpga.ModuleSpec{
		Name: "big", LUTs: 1000, BRAM: 600, ThroughputBps: 1e9,
		DelayCycles: 1, BitstreamBytes: 1 << 20, New: func() fpga.Module { return reverseModule{} },
	}
	r := newRig(t, Config{}, big)
	if _, err := r.rt.LoadPR("big", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rt.LoadPR("big", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rt.LoadPR("big", 0); !errors.Is(err, ErrCapacity) {
		t.Errorf("third instance: %v", err)
	}
}

func TestSendToUnknownAccDropsSafely(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("nf", 0)
	r.settle()
	pkts := []*mbuf.Mbuf{r.packet(t, nf, AccID(250), []byte("to nowhere"))}
	if _, err := r.rt.SendPackets(nf, pkts); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)
	if r.pool.InUse() != 0 {
		t.Errorf("unroutable packets leaked: %d", r.pool.InUse())
	}
}

// TestStagingUnknownAccID sends the largest id an mbuf can carry: the
// staging table grows to hold it, the packet stages and is flushed like any
// other, and the flush finds no route. A routed accelerator staged beside
// it in the same table is not disturbed.
func TestStagingUnknownAccID(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("nf", 0)
	acc, _ := r.rt.SearchByName("rev", 0)
	r.settle()
	pkts := []*mbuf.Mbuf{
		r.packet(t, nf, acc, []byte("routed")),
		r.packet(t, nf, AccID(0xffff), []byte("to nowhere")),
	}
	if _, err := r.rt.SendPackets(nf, pkts); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Microsecond)
	tx := r.rt.nodeTx[0]
	if st := tx.state(0xffff); st == nil || len(st.mbufs) != 1 {
		t.Fatalf("acc_id 0xffff not staged: %+v", st)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)
	s, _ := r.rt.Stats(0)
	if s.PktsPacked != 2 || s.DropNoRoute != 1 || s.StagingDrops != 0 || s.PktsDistributed != 1 {
		t.Errorf("packed %d, no-route %d, staging drops %d, distributed %d; want 2, 1, 0, 1",
			s.PktsPacked, s.DropNoRoute, s.StagingDrops, s.PktsDistributed)
	}
	out := make([]*mbuf.Mbuf, 4)
	n, _ := r.rt.ReceivePackets(nf, out)
	if n != 1 || string(out[0].Data()) != "detuor" {
		t.Fatalf("received %d packets, want the routed one reversed", n)
	}
	_ = r.pool.Free(out[0])
	if r.pool.InUse() != 0 {
		t.Errorf("pool unbalanced: %d in use", r.pool.InUse())
	}
}

func TestStatsErrors(t *testing.T) {
	r := newRig(t, Config{})
	if _, err := r.rt.Stats(7); err == nil {
		t.Errorf("bad node stats: %v", err)
	}
}

// TestQuickEndToEndIntegrity property-checks the full transfer layer:
// arbitrary payload batches come back intact, in order, and exactly once.
func TestQuickEndToEndIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	f := func(payloads [][]byte) bool {
		r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
			moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
		nf, _ := r.rt.Register("nf", 0)
		acc, _ := r.rt.SearchByName("rev", 0)
		r.settle()

		if len(payloads) > 64 {
			payloads = payloads[:64]
		}
		var pkts []*mbuf.Mbuf
		for _, p := range payloads {
			if len(p) > 1500 {
				p = p[:1500]
			}
			pkts = append(pkts, r.packet(t, nf, acc, p))
		}
		sent, err := r.rt.SendPackets(nf, pkts)
		if err != nil {
			return false
		}
		for _, m := range pkts[sent:] {
			_ = r.pool.Free(m)
		}
		r.sim.Run(r.sim.Now() + 2*eventsim.Millisecond)

		out := make([]*mbuf.Mbuf, len(pkts)+1)
		got, _ := r.rt.ReceivePackets(nf, out)
		if got != sent {
			t.Logf("sent %d, received %d", sent, got)
			return false
		}
		ok := true
		for i := 0; i < got; i++ {
			p := payloads[i]
			if len(p) > 1500 {
				p = p[:1500]
			}
			rev := make([]byte, len(p))
			for j, b := range p {
				rev[len(rev)-1-j] = b
			}
			if !bytes.Equal(out[i].Data(), rev) {
				ok = false
			}
			_ = r.pool.Free(out[i])
		}
		return ok && r.pool.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestOBQOverflowDropsAndCounts(t *testing.T) {
	// An OBQ with 3 free slots plus a never-polling NF: overflow must be
	// counted and the excess packets returned to the pool, not leaked.
	r := newPoolRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, 2048,
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("slow-consumer", 0)
	acc, _ := r.rt.SearchByName("rev", 0)
	r.settle()
	fill := r.rt.nfs[nf-1].obq.Capacity() - 3
	r.fillOBQ(t, nf, 3)

	pkts := make([]*mbuf.Mbuf, 16)
	for i := range pkts {
		pkts[i] = r.packet(t, nf, acc, []byte(fmt.Sprintf("burst-%02d", i)))
	}
	if _, err := r.rt.SendPackets(nf, pkts); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)

	// Drain what made it; everything else is already back in the pool.
	out := make([]*mbuf.Mbuf, r.rt.nfs[nf-1].obq.Capacity())
	n, _ := r.rt.ReceivePackets(nf, out)
	for i := 0; i < n; i++ {
		_ = r.pool.Free(out[i])
	}
	if returned, drops := n-fill, r.stats(t).DropOBQFull; returned != 3 || drops != 13 {
		t.Errorf("returned %d, dropped %d into 3 free slots, want 3 and 13", returned, drops)
	}
	if r.pool.InUse() != 0 {
		t.Errorf("overflowed packets leaked: %d in use", r.pool.InUse())
	}
}
