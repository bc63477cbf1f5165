package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/placement"
)

// newFleetRig is newRig with several boards on node 0 — the board-level
// failure-domain testbed. Returns the rig (dev = board 0) plus every
// device in board order.
func newFleetRig(t *testing.T, cfg Config, boards int, specs ...fpga.ModuleSpec) (*rig, []*fpga.Device) {
	t.Helper()
	cfg.BoardsPerNode = boards
	r := newPoolRig(t, cfg, 2048, specs...)
	devs := make([]*fpga.Device, boards)
	for i := range devs {
		devs[i] = r.rt.boards[i].dev
	}
	return r, devs
}

// drainOBQ receives and frees everything parked on the NF's OBQ,
// returning the count and checking payloads when want != nil.
func drainOBQ(t *testing.T, r *rig, nf NFID, want []byte) int {
	t.Helper()
	out := make([]*mbuf.Mbuf, 64)
	total := 0
	for {
		got, err := r.rt.ReceivePackets(nf, out)
		if err != nil {
			t.Fatal(err)
		}
		if got == 0 {
			return total
		}
		for i := 0; i < got; i++ {
			if want != nil && out[i].Status == mbuf.StatusOK && !bytes.Equal(out[i].Data(), want) {
				t.Errorf("packet %d: payload %q, want %q", total+i, out[i].Data(), want)
			}
			_ = r.pool.Free(out[i])
		}
		total += got
	}
}

// checkLedger asserts the three-level packet conservation invariant.
func checkLedger(t *testing.T, s TransferStats, delivered uint64) {
	t.Helper()
	if s.IBQDrained != s.PktsPacked+s.StagingDrops {
		t.Errorf("ledger: IBQDrained %d != PktsPacked %d + StagingDrops %d",
			s.IBQDrained, s.PktsPacked, s.StagingDrops)
	}
	if s.PktsPacked != s.PktsDistributed+s.DropFault+s.DropCorrupt+s.DropMismatch+s.DropNoRoute {
		t.Errorf("ledger: PktsPacked %d != Distributed %d + Fault %d + Corrupt %d + Mismatch %d + NoRoute %d",
			s.PktsPacked, s.PktsDistributed, s.DropFault, s.DropCorrupt, s.DropMismatch, s.DropNoRoute)
	}
	if s.PktsDistributed != delivered+s.DropUnknownNF+s.DropNFClosed+s.DropOBQFull {
		t.Errorf("ledger: PktsDistributed %d != delivered %d + UnknownNF %d + NFClosed %d + OBQFull %d",
			s.PktsDistributed, delivered, s.DropUnknownNF, s.DropNFClosed, s.DropOBQFull)
	}
}

func TestMigrateLive(t *testing.T) {
	// A live migration on a healthy system: traffic flows to the old
	// primary until the target's PR completes, then cuts over atomically.
	// No drops, no leaks, resources returned to the source board.
	r, devs := newFleetRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, 2, revSpec())
	nf, _ := r.rt.Register("mig", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	e := r.rt.accs[acc]
	if e.route.Primary().FPGA != 0 {
		t.Fatalf("initial placement on board %d, want 0", e.route.Primary().FPGA)
	}
	payload := bytes.Repeat([]byte{0x11}, 128)
	sendBurst(t, r, nf, acc, 16)
	if got := drainOBQ(t, r, nf, reversed(payload)); got != 16 {
		t.Fatalf("pre-migration: received %d, want 16", got)
	}
	lutsFree := devs[0].AvailableLUTs()

	board, err := r.rt.Migrate(acc, -1)
	if err != nil {
		t.Fatal(err)
	}
	if board != 1 {
		t.Fatalf("migrated to board %d, want 1", board)
	}
	// A second migration while one is in flight is refused.
	if _, err := r.rt.Migrate(acc, -1); err == nil {
		t.Error("concurrent migration accepted")
	}
	// Traffic keeps flowing to the old primary while the target's PR
	// streams through ICAP.
	sendBurst(t, r, nf, acc, 8)
	if got := drainOBQ(t, r, nf, reversed(payload)); got != 8 {
		t.Errorf("mid-migration: received %d, want 8", got)
	}
	if e.route.Primary().FPGA != 0 {
		t.Errorf("cutover before PR completed (board %d)", e.route.Primary().FPGA)
	}

	r.settle()
	if e.route.Primary().FPGA != 1 {
		t.Fatalf("after migration: primary on board %d, want 1", e.route.Primary().FPGA)
	}
	if e.epoch == 0 {
		t.Error("cutover did not bump the entry epoch")
	}
	if got := len(e.route.Endpoints()); got != 1 {
		t.Errorf("route has %d endpoints after cutover, want 1", got)
	}
	if ep := e.route.Primary(); ep == nil || ep.FPGA != 1 || !ep.Ready {
		t.Errorf("primary endpoint %+v", ep)
	}
	if free := devs[0].AvailableLUTs(); free != lutsFree+1000 {
		t.Errorf("source board LUTs %d, want %d (region not reclaimed)", free, lutsFree+1000)
	}
	if in, out := r.rt.sched.Migrations(1); in != 1 || out != 0 {
		t.Errorf("board 1 migrations in/out = %d/%d, want 1/0", in, out)
	}
	if in, out := r.rt.sched.Migrations(0); in != 0 || out != 1 {
		t.Errorf("board 0 migrations in/out = %d/%d, want 0/1", in, out)
	}

	sendBurst(t, r, nf, acc, 16)
	if got := drainOBQ(t, r, nf, reversed(payload)); got != 16 {
		t.Errorf("post-migration: received %d, want 16", got)
	}
	if batches, _, _, rerr := devs[1].RegionStats(e.route.Primary().Region); rerr != nil || batches == 0 {
		t.Errorf("target region processed %d batches (%v)", batches, rerr)
	}
	checkLedger(t, r.stats(t), 40)
	checkNoLeaks(t, r)
}

func TestMigrationZeroLeak(t *testing.T) {
	// Board loss under continuous load, no replica: the runtime re-places
	// the accelerator on the surviving board. Every packet is either
	// delivered or attributed in the drop ledger, and nothing leaks —
	// not an mbuf, not an arena segment — across the failure and the
	// migration.
	r, devs := newFleetRig(t, Config{
		FlushTimeout:    5 * eventsim.Microsecond,
		WatchdogTimeout: 250 * eventsim.Microsecond,
	}, 2, revSpec())
	nf, _ := r.rt.Register("zeroleak", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	e := r.rt.accs[acc]

	const bursts = 60
	const burstSize = 8
	sent := 0
	payload := bytes.Repeat([]byte{0x11}, 128)
	var pump func(i int)
	pump = func(i int) {
		if i >= bursts {
			return
		}
		if i == 20 {
			// Pull the primary's board mid-stream.
			if _, oerr := r.rt.OfflineBoard(0); oerr != nil {
				t.Errorf("offline: %v", oerr)
			}
		}
		pkts := make([]*mbuf.Mbuf, burstSize)
		for j := range pkts {
			pkts[j] = r.packet(t, nf, acc, payload)
		}
		n, serr := r.rt.SendPackets(nf, pkts)
		if serr != nil {
			t.Errorf("send: %v", serr)
		}
		sent += n
		for j := n; j < burstSize; j++ {
			_ = r.pool.Free(pkts[j])
		}
		r.sim.After(25*eventsim.Microsecond, func() { pump(i + 1) })
	}
	pump(0)
	// 60 bursts x 25us = 1.5ms of traffic; the re-place PR takes ~5ms.
	r.sim.Run(r.sim.Now() + 20*eventsim.Millisecond)

	if e.route.Primary().FPGA != 1 {
		t.Fatalf("primary on board %d after board 0 loss, want 1", e.route.Primary().FPGA)
	}
	if devs[0].IsShutdown() != true {
		t.Error("board 0 not shut down")
	}
	if h := e.health; h != HealthHealthy {
		t.Errorf("health %v after re-place, want healthy", h)
	}

	// Post-failure traffic processes cleanly on the new board.
	sendBurst(t, r, nf, acc, 16)
	sent += 16
	delivered := drainOBQ(t, r, nf, nil)
	s := r.stats(t)
	if uint64(sent) != s.IBQDrained {
		t.Errorf("sent %d != IBQDrained %d", sent, s.IBQDrained)
	}
	checkLedger(t, s, uint64(delivered))
	checkNoLeaks(t, r)
	checkAccTable(t, r)
}

func TestReplicaPromotionZeroOutage(t *testing.T) {
	// With a warm replica, board loss costs nothing: the replica is
	// promoted instantly (no ICAP write), held batches flow to it on the
	// very next flush, and the health FSM starts fresh.
	r, devs := newFleetRig(t, Config{
		FlushTimeout:    5 * eventsim.Microsecond,
		WatchdogTimeout: 250 * eventsim.Microsecond,
	}, 2, revSpec())
	nf, _ := r.rt.Register("promo", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	e := r.rt.accs[acc]

	board, err := r.rt.Replicate(acc, -1)
	if err != nil {
		t.Fatal(err)
	}
	if board != 1 {
		t.Fatalf("replica on board %d, want 1", board)
	}
	r.settle()
	if live := e.route.Live(); live != 2 {
		t.Fatalf("route has %d live endpoints, want 2", live)
	}

	// Traffic spreads over both endpoints (weighted round-robin 4/4).
	payload := bytes.Repeat([]byte{0x11}, 128)
	for i := 0; i < 8; i++ {
		sendBurst(t, r, nf, acc, 8)
	}
	if got := drainOBQ(t, r, nf, reversed(payload)); got != 64 {
		t.Fatalf("received %d, want 64", got)
	}
	b0, _, _, _ := devs[0].RegionStats(e.route.Primary().Region)
	replicaRegion := -1
	for _, ep := range e.route.Endpoints() {
		if ep.FPGA == 1 {
			replicaRegion = ep.Region
		}
	}
	b1, _, _, _ := devs[1].RegionStats(replicaRegion)
	if b0 == 0 || b1 == 0 {
		t.Errorf("batches split %d/%d, want both boards serving", b0, b1)
	}

	epochBefore := e.epoch
	if _, err := r.rt.OfflineBoard(0); err != nil {
		t.Fatal(err)
	}
	if e.route.Primary().FPGA != 1 || e.route.Primary().Region != replicaRegion {
		t.Fatalf("promotion: primary at board %d region %d, want 1/%d", e.route.Primary().FPGA, e.route.Primary().Region, replicaRegion)
	}
	if e.epoch == epochBefore {
		t.Error("promotion did not bump the epoch")
	}
	if got := len(e.route.Endpoints()); got != 1 {
		t.Errorf("route has %d endpoints after promotion, want 1", got)
	}
	if in, _ := r.rt.sched.Migrations(1); in != 1 {
		t.Errorf("board 1 migrated-in %d, want 1", in)
	}

	// No outage: the next traffic is served immediately, no PR wait.
	sendBurst(t, r, nf, acc, 16)
	if got := drainOBQ(t, r, nf, reversed(payload)); got != 16 {
		t.Errorf("post-promotion: received %d, want 16", got)
	}
	s := r.stats(t)
	if s.StagingDrops != 0 || s.DropNoRoute != 0 {
		t.Errorf("promotion dropped packets: staging %d, noroute %d", s.StagingDrops, s.DropNoRoute)
	}
	checkNoLeaks(t, r)
	checkAccTable(t, r)
}

func TestDrainBoardMovesPrimaries(t *testing.T) {
	// Draining migrates accelerators off while the board keeps serving;
	// the drained board refuses new placements until undrained.
	r, _ := newFleetRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, 2,
		revSpec(), moduleSpec("rev2", func() fpga.Module { return reverseModule{} }))
	accA, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	accB, err := r.rt.SearchByName("rev2", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	if r.rt.accs[accA].route.Primary().FPGA != 0 || r.rt.accs[accB].route.Primary().FPGA != 0 {
		t.Fatalf("both accs should first-fit onto board 0")
	}

	moved, err := r.rt.DrainBoard(0)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("drain moved %d, want 2", moved)
	}
	if h := r.rt.sched.BoardHealthOf(0); h != placement.BoardDraining {
		t.Errorf("board 0 health %v, want draining", h)
	}
	r.settle()
	if r.rt.accs[accA].route.Primary().FPGA != 1 || r.rt.accs[accB].route.Primary().FPGA != 1 {
		t.Errorf("accs on boards %d/%d after drain, want 1/1",
			r.rt.accs[accA].route.Primary().FPGA, r.rt.accs[accB].route.Primary().FPGA)
	}

	// New placements refuse the draining board.
	if err := r.rt.RegisterModule(moduleSpec("rev3", func() fpga.Module { return reverseModule{} })); err != nil {
		t.Fatal(err)
	}
	accC, err := r.rt.SearchByName("rev3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.rt.accs[accC].route.Primary().FPGA; got != 1 {
		t.Errorf("new placement on board %d during drain, want 1", got)
	}
	if err := r.rt.UndrainBoard(0); err != nil {
		t.Fatal(err)
	}
	if h := r.rt.sched.BoardHealthOf(0); h != placement.BoardAlive {
		t.Errorf("board 0 health %v after undrain, want alive", h)
	}
	checkAccTable(t, r)
}

func TestLoadPRRetriesPastWedgedICAP(t *testing.T) {
	// Board 0's ICAP wedges on the first write; placement excludes it and
	// the module lands on board 1.
	plan := mustPlan(t, 7, faultinject.Spec{Kind: faultinject.ICAPWedge, EveryN: 1, Count: 1})
	r, _ := newFleetRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond, Faults: plan}, 2, revSpec())
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.rt.accs[acc].route.Primary().FPGA; got != 1 {
		t.Errorf("placed on board %d, want 1 (board 0 wedged)", got)
	}
	if w := r.dev.FaultCounters().ICAPWedges; w != 1 {
		t.Errorf("board 0 ICAP wedges = %d, want 1", w)
	}
	r.settle()
	nf, _ := r.rt.Register("wedge", 0)
	sendBurst(t, r, nf, acc, 8)
	if got := drainOBQ(t, r, nf, nil); got != 8 {
		t.Errorf("received %d, want 8", got)
	}
	checkNoLeaks(t, r)
}

func TestQuarantineDeadReloadMigratesOff(t *testing.T) {
	// The quarantine path's Reload fails because the board died; instead
	// of parking on the fallback forever, the runtime re-places the
	// accelerator on the surviving board.
	r, devs := newFleetRig(t, Config{
		FlushTimeout:    5 * eventsim.Microsecond,
		WatchdogTimeout: 250 * eventsim.Microsecond,
	}, 2, revSpec())
	nf, _ := r.rt.Register("deadreload", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	e := r.rt.accs[acc]

	// Kill the board directly (no sweep — the data path and health FSM
	// must discover it), then push traffic at the dead primary.
	devs[0].Shutdown()
	sendBurst(t, r, nf, acc, 8)
	r.settle()
	if e.route.Primary().FPGA != 1 {
		t.Fatalf("primary on board %d, want 1 (migrated off dead board)", e.route.Primary().FPGA)
	}
	if e.health != HealthHealthy {
		t.Errorf("health %v after re-place, want healthy", e.health)
	}
	sendBurst(t, r, nf, acc, 8)
	delivered := drainOBQ(t, r, nf, nil)
	s := r.stats(t)
	checkLedger(t, s, uint64(delivered))
	checkNoLeaks(t, r)
}

func TestMigrateExplicitTargetValidation(t *testing.T) {
	r, _ := newFleetRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, 2, revSpec())
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	if _, err := r.rt.Migrate(acc, 7); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := r.rt.Migrate(AccID(99), -1); err == nil {
		t.Error("unknown acc accepted")
	}
	if _, err := r.rt.Replicate(AccID(99), -1); err == nil {
		t.Error("unknown acc accepted for replicate")
	}
	// Explicit same-fleet migration to board 1 works.
	if b, err := r.rt.Migrate(acc, 1); err != nil || b != 1 {
		t.Errorf("explicit migrate: board %d, %v", b, err)
	}
	r.settle()
	if got := r.rt.accs[acc].route.Primary().FPGA; got != 1 {
		t.Errorf("primary on board %d, want 1", got)
	}
}

func TestMigrateRefusesNegativeBoard(t *testing.T) {
	// -1 asks the scheduler to choose; any other negative board is no
	// board at all. On two boards the scheduler would find a home, so a
	// target read as -1 would show as a move.
	r, _ := newFleetRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, 2, revSpec())
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	if b, err := r.rt.Migrate(acc, -2); !errors.Is(err, placement.ErrUnknownBoard) {
		t.Errorf("Migrate to board -2: board %d, %v", b, err)
	}
	if b, err := r.rt.Replicate(acc, -2); !errors.Is(err, placement.ErrUnknownBoard) {
		t.Errorf("Replicate to board -2: board %d, %v", b, err)
	}
	r.settle()
	if eps := r.rt.accs[acc].route.Endpoints(); len(eps) != 1 || eps[0].FPGA != 0 {
		t.Errorf("endpoints after refused moves: %+v, want the one on board 0", eps)
	}
	checkAccTable(t, r)
}

func TestEvictUnloadsReplicas(t *testing.T) {
	// Evicting an acc with a warm replica frees both regions and forgets
	// the route.
	r, devs := newFleetRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, 2, revSpec())
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	if _, err := r.rt.Replicate(acc, -1); err != nil {
		t.Fatal(err)
	}
	r.settle()
	free0, free1 := devs[0].AvailableLUTs(), devs[1].AvailableLUTs()
	if err := r.rt.Evict(acc); err != nil {
		t.Fatal(err)
	}
	if got := devs[0].AvailableLUTs(); got != free0+1000 {
		t.Errorf("board 0 LUTs %d, want %d", got, free0+1000)
	}
	if got := devs[1].AvailableLUTs(); got != free1+1000 {
		t.Errorf("board 1 LUTs %d, want %d", got, free1+1000)
	}
	table := r.rt.PlacementTable()
	if n := len(table[0].Endpoints) + len(table[1].Endpoints); n != 0 {
		t.Errorf("%d endpoints survive eviction", n)
	}
	checkAccTable(t, r)
}

// TestFleetCapacityErrorNamesEveryBoard pins the satellite-1 contract at
// fleet scope: a placement that fits nowhere reports each board's
// individual refusal with requested-vs-available numbers, and still
// matches errors.Is(err, fpga.ErrInsufficient) through the wrap chain.
func TestFleetCapacityErrorNamesEveryBoard(t *testing.T) {
	big := fpga.ModuleSpec{
		Name: "huge", LUTs: perf.FPGATotalLUTs, BRAM: 8, ThroughputBps: 1e9,
		DelayCycles: 1, BitstreamBytes: 1 << 20,
		New: func() fpga.Module { return reverseModule{} },
	}
	r, _ := newFleetRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, 2, big)
	_, err := r.rt.SearchByName("huge", 0)
	if err == nil {
		t.Fatal("impossible placement accepted")
	}
	msg := err.Error()
	for _, wantSub := range []string{"board 0", "board 1", "needs", "have"} {
		if !bytes.Contains([]byte(msg), []byte(wantSub)) {
			t.Errorf("error %q missing %q", msg, wantSub)
		}
	}
}

var _ = fmt.Sprintf // keep fmt for future debugging aids

// TestBringUpReplaysOnceInOrder drives one accelerator through every way
// an instance comes into service — initial load with blobs queued mid-PR,
// recovery reload, migration, replica warm-up, promotion — and holds each
// fresh instance to exactly the blobs sent, once, in order.
func TestBringUpReplaysOnceInOrder(t *testing.T) {
	var instances []*[]string // per module instance, the blobs it was configured with
	spec := moduleSpec("rec", func() fpga.Module {
		seen := new([]string)
		instances = append(instances, seen)
		return &captureModule{onConfigure: func(b []byte) { *seen = append(*seen, string(b)) }}
	})
	r, _ := newFleetRig(t, Config{WatchdogTimeout: 250 * eventsim.Microsecond}, 3, spec)
	acc, err := r.rt.SearchByName("rec", 0)
	if err != nil {
		t.Fatal(err)
	}
	e := r.rt.accs[acc]
	check := func(step string, n int, board int) {
		t.Helper()
		if len(instances) != n {
			t.Fatalf("%s: %d instances built, want %d", step, len(instances), n)
		}
		if got := fmt.Sprint(*instances[n-1]); got != "[a b c]" {
			t.Errorf("%s: newest instance configured with %s, want [a b c]", step, got)
		}
		if e.route.Primary().FPGA != board || !e.route.Primary().Ready || e.health != HealthHealthy || e.reloading || e.migrating {
			t.Errorf("%s: entry on board %d ready=%v health=%v reloading=%v migrating=%v, want settled on board %d",
				step, e.route.Primary().FPGA, e.route.Primary().Ready, e.health, e.reloading, e.migrating, board)
		}
	}
	for _, blob := range []string{"a", "b", "c"} { // the PR is still streaming
		if err := r.rt.AccConfigure(acc, []byte(blob)); err != nil {
			t.Fatal(err)
		}
	}
	r.settle()
	check("initial load", 1, 0)

	r.rt.quarantine(e)
	if !e.reloading {
		t.Fatal("quarantine started no reload")
	}
	r.settle()
	check("reload", 2, 0)

	if _, err := r.rt.Migrate(acc, 1); err != nil {
		t.Fatal(err)
	}
	r.settle()
	check("migration", 3, 1)

	if _, err := r.rt.Replicate(acc, 2); err != nil {
		t.Fatal(err)
	}
	r.settle()
	check("replica warm-up", 4, 1)

	epoch := e.epoch
	if moved, err := r.rt.OfflineBoard(1); err != nil || moved != 1 {
		t.Fatalf("offline: moved %d, %v", moved, err)
	}
	check("promotion", 4, 2) // instant: no new instance, nothing replayed twice
	if e.epoch != epoch+1 {
		t.Errorf("promotion moved the epoch %d -> %d, want one step", epoch, e.epoch)
	}
	for i, seen := range instances {
		if got := fmt.Sprint(*seen); got != "[a b c]" {
			t.Errorf("instance %d saw %s, want [a b c]", i, got)
		}
	}
}

// TestEvictAfterReloadDiedWithBoard: a recovery reload that dies with its
// board never completes, so its in-flight marker must not hold an evict
// off for good.
func TestEvictAfterReloadDiedWithBoard(t *testing.T) {
	r := newRig(t, Config{WatchdogTimeout: 250 * eventsim.Microsecond}, revSpec())
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	e := r.rt.accs[acc]
	r.rt.quarantine(e)
	if err := r.rt.Evict(acc); !errors.Is(err, ErrAccReloading) {
		t.Fatalf("evict during a live reload: %v", err)
	}
	r.dev.Shutdown() // mid-ICAP: the reload's completion will never run
	r.settle()
	if !e.reloading {
		t.Fatal("precondition: the dead reload's marker is still set")
	}
	if err := r.rt.Evict(acc); err != nil {
		t.Fatalf("evict after the reload died with its board: %v", err)
	}
	if ids := r.rt.AccIDs(); len(ids) != 0 {
		t.Errorf("AccIDs after evict: %v", ids)
	}
	checkNoLeaks(t, r)
	checkAccTable(t, r)
}
