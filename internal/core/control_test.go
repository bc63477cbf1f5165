package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

func TestEvictPRRoundTrip(t *testing.T) {
	r := newRig(t, Config{}, moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The region is still reconfiguring: eviction must refuse.
	if err := r.rt.Evict(acc); !errors.Is(err, ErrAccReloading) {
		t.Fatalf("evict mid-ICAP: %v", err)
	}
	r.settle()
	luts := r.dev.AvailableLUTs()
	if err := r.rt.Evict(acc); err != nil {
		t.Fatal(err)
	}
	if got := r.dev.AvailableLUTs(); got != luts+1000 {
		t.Errorf("LUTs not returned: %d -> %d", luts, got)
	}
	if ids := r.rt.AccIDs(); len(ids) != 0 {
		t.Errorf("AccIDs after evict: %v", ids)
	}
	if len(r.rt.HFTable()) != 0 {
		t.Errorf("hf table after evict: %v", r.rt.HFTable())
	}
	if err := r.rt.Evict(acc); !errors.Is(err, ErrUnknownAcc) {
		t.Errorf("double evict: %v", err)
	}
	// The name reloads onto a fresh acc_id / region.
	acc2, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc2 == acc {
		t.Errorf("evicted acc_id %d reused", acc)
	}
	info, err := r.rt.AccInfo(acc2)
	if err != nil || info.Name != "rev" || info.Ready {
		t.Errorf("info %+v err %v", info, err)
	}
}

// TestAccIDExhaustionRefusesLoad: acc_ids are never reused, so once the
// last one is handed out LoadPR refuses, and the readers that walk the id
// space still return.
func TestAccIDExhaustionRefusesLoad(t *testing.T) {
	r := newRig(t, Config{}, moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	r.rt.nextAcc = 65534
	acc, err := r.rt.LoadPR("rev", 0)
	if err != nil || acc != 65535 {
		t.Fatalf("last acc_id: %d %v", acc, err)
	}
	if _, err := r.rt.LoadPR("rev", 0); !errors.Is(err, ErrCapacity) {
		t.Fatalf("load past the last acc_id: %v", err)
	}
	r.settle()
	if ids := r.rt.AccIDs(); !reflect.DeepEqual(ids, []AccID{65535}) {
		t.Errorf("AccIDs = %v, want [65535]", ids)
	}
	if rows := r.rt.HFTable(); len(rows) != 1 {
		t.Errorf("hf table = %v, want one row", rows)
	}
}

func TestEvictPRDrainsStagedPackets(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 10 * eventsim.Millisecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("nf", 0)
	acc, _ := r.rt.SearchByName("rev", 0)
	r.settle()

	// Stage a couple of packets without reaching the size trigger; the
	// long flush timeout keeps them parked in the Packer.
	pkts := []*mbuf.Mbuf{
		r.packet(t, nf, acc, []byte("staged-0")),
		r.packet(t, nf, acc, []byte("staged-1")),
	}
	if _, err := r.rt.SendPackets(nf, pkts); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + 50*eventsim.Microsecond)
	if st, _ := r.rt.Stats(0); st.PktsPacked != 2 || st.BatchesSent != 0 {
		t.Fatalf("precondition: %d packed, %d sent", st.PktsPacked, st.BatchesSent)
	}
	if err := r.rt.Evict(acc); err != nil {
		t.Fatal(err)
	}
	st, _ := r.rt.Stats(0)
	if st.DropNoRoute != 2 {
		t.Errorf("DropNoRoute = %d, want 2", st.DropNoRoute)
	}
	if r.pool.InUse() != 0 {
		t.Errorf("pool leak after evict: %d", r.pool.InUse())
	}
	// The ledger still balances: packed == distributed + drops.
	if st.PktsPacked != st.PktsDistributed+st.DropFault+st.DropCorrupt+st.DropMismatch+st.DropNoRoute {
		t.Errorf("ledger unbalanced: %+v", st)
	}
	// Traffic that keeps arriving for the evicted acc_id drops cleanly.
	late := []*mbuf.Mbuf{r.packet(t, nf, acc, []byte("late"))}
	if _, err := r.rt.SendPackets(nf, late); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + 20*eventsim.Millisecond)
	if st, _ = r.rt.Stats(0); st.DropNoRoute != 3 {
		t.Errorf("late DropNoRoute = %d, want 3", st.DropNoRoute)
	}
	if r.pool.InUse() != 0 {
		t.Errorf("pool leak after late traffic: %d", r.pool.InUse())
	}
}

// TestFlushTimeoutPokeMovesStagedDeadline shortens a flush timeout under a
// batch that is already staged, between two Run calls. The TX core is
// asleep until the old deadline and no ring is touched, so only retune's
// poke makes it read the timeout again; the batch has to leave at the new
// deadline, at the instants an every-poll TX core gives.
func TestFlushTimeoutPokeMovesStagedDeadline(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 20 * eventsim.Microsecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("nf", 0)
	acc, _ := r.rt.SearchByName("rev", 0)
	r.settle()

	pkts := make([]*mbuf.Mbuf, 4)
	for i := range pkts {
		pkts[i] = r.packet(t, nf, acc, []byte("staged"))
	}
	start := r.sim.Now()
	if n, err := r.rt.SendPackets(nf, pkts); err != nil || n != len(pkts) {
		t.Fatalf("sent %d: %v", n, err)
	}
	r.sim.Run(start + 2*eventsim.Microsecond)
	if st, _ := r.rt.Stats(0); st.PktsPacked != 4 || st.BatchesSent != 0 {
		t.Fatalf("precondition: %d packed, %d sent", st.PktsPacked, st.BatchesSent)
	}
	if err := r.rt.SetAccFlushTimeout(acc, 5*eventsim.Microsecond); err != nil {
		t.Fatal(err)
	}
	// 1 ns steps read both instants to the nanosecond they fall in; the
	// values are the ones the commit before Watch existed gives, where every
	// Run entry woke the TX core.
	const wantSentAt, wantBackAt = 5049 * eventsim.Nanosecond, 7866 * eventsim.Nanosecond
	var sentAt, backAt eventsim.Time
	for backAt == 0 && r.sim.Now() < start+40*eventsim.Microsecond {
		r.sim.Run(r.sim.Now() + eventsim.Nanosecond)
		if st, _ := r.rt.Stats(0); sentAt == 0 && st.BatchesSent == 1 {
			sentAt = r.sim.Now() - start
		}
		if n, _ := r.rt.ReceivePackets(nf, pkts); n > 0 {
			backAt = r.sim.Now() - start
			for _, m := range pkts[:n] {
				_ = r.pool.Free(m)
			}
		}
	}
	if st, _ := r.rt.Stats(0); st.FlushByTimeout != 1 {
		t.Errorf("FlushByTimeout = %d, want 1", st.FlushByTimeout)
	}
	if sentAt != wantSentAt || backAt != wantBackAt {
		t.Errorf("batch left %v and was back %v after the send, want %v and %v", sentAt, backAt, wantSentAt, wantBackAt)
	}
}

func TestSetBatchBytesLive(t *testing.T) {
	r := newRig(t, Config{BatchBytes: 4096},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, _ := r.rt.Register("nf", 0)
	acc, _ := r.rt.SearchByName("rev", 0)
	r.settle()

	if got := r.rt.BatchBytes(); got != 4096 {
		t.Fatalf("BatchBytes = %d", got)
	}
	if err := r.rt.SetBatchBytes(64); !errors.Is(err, ErrBadBatchConfig) {
		t.Errorf("below min accepted: %v", err)
	}
	// Segments are 2x the opening size; anything past that cannot encode.
	if err := r.rt.SetBatchBytes(5000); !errors.Is(err, ErrBatchTooBig) {
		t.Errorf("oversize accepted: %v", err)
	}

	send := func(n, size int) {
		t.Helper()
		pkts := make([]*mbuf.Mbuf, n)
		payload := make([]byte, size)
		for i := range pkts {
			pkts[i] = r.packet(t, nf, acc, payload)
		}
		if sent, err := r.rt.SendPackets(nf, pkts); err != nil || sent != n {
			t.Fatalf("send %d err %v", sent, err)
		}
		r.sim.Run(r.sim.Now() + eventsim.Millisecond)
		out := make([]*mbuf.Mbuf, 2*n)
		got, err := r.rt.ReceivePackets(nf, out)
		if err != nil || got != n {
			t.Fatalf("receive %d err %v", got, err)
		}
		for i := 0; i < got; i++ {
			_ = r.pool.Free(out[i])
		}
	}

	// At 4 KB batches, 16 x 512 B payloads fill about two batches.
	send(16, 512)
	before, _ := r.rt.Stats(0)
	if before.BatchesSent < 2 || before.BatchesSent > 3 {
		t.Fatalf("4KB batches sent = %d", before.BatchesSent)
	}

	if err := r.rt.SetBatchBytes(1024); err != nil {
		t.Fatal(err)
	}
	if got := r.rt.BatchBytes(); got != 1024 {
		t.Fatalf("BatchBytes after tune = %d", got)
	}
	send(16, 512)
	after, _ := r.rt.Stats(0)
	delta := after.BatchesSent - before.BatchesSent
	// 16 x (512+overhead) at a 1 KB target is at least 8 batches.
	if delta < 8 {
		t.Errorf("1KB batches sent = %d, want >= 8", delta)
	}
	if after.PktsDistributed != 32 {
		t.Errorf("distributed %d", after.PktsDistributed)
	}
	if r.pool.InUse() != 0 {
		t.Errorf("pool leak: %d", r.pool.InUse())
	}
}

// TestStatsReadsWholeLedger sets every counter of the node's one ledger
// and reads each back through Stats, so a counter added later cannot be
// dropped on the way out.
func TestStatsReadsWholeLedger(t *testing.T) {
	r := newRig(t, Config{}, moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	tx, rx := r.rt.nodeTx[0], r.rt.nodeRx[0]
	if rx.stats != &tx.stats {
		t.Fatal("the RX engine writes a ledger of its own")
	}
	ledger := reflect.ValueOf(&tx.stats).Elem()
	for i := 0; i < ledger.NumField(); i++ {
		ledger.Field(i).SetUint(uint64(100 + i))
	}
	st, err := r.rt.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	got := reflect.ValueOf(st)
	for i := 0; i < got.NumField(); i++ {
		name, want := got.Type().Field(i).Name, uint64(100+i)
		if v := got.Field(i).Uint(); v != want {
			t.Errorf("Stats().%s = %d, want %d", name, v, want)
		}
	}
}

func TestSetWatchdogTimeoutArmsLive(t *testing.T) {
	r := newRig(t, Config{}, moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	if r.rt.armed {
		t.Fatal("runtime armed without faults")
	}
	if r.rt.WatchdogTimeout() != 0 {
		t.Fatalf("timeout = %v", r.rt.WatchdogTimeout())
	}
	if err := r.rt.SetWatchdogTimeout(-1); !errors.Is(err, ErrBadBatchConfig) {
		t.Errorf("negative accepted: %v", err)
	}
	if err := r.rt.SetWatchdogTimeout(100 * eventsim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if !r.rt.armed {
		t.Error("runtime not armed after tune")
	}
	tx, rx := r.rt.nodeTx[0], r.rt.nodeRx[0]
	if tx.watchdog != 100*eventsim.Microsecond || rx.timeout != 100*eventsim.Microsecond {
		t.Errorf("engine timeouts %v/%v", tx.watchdog, rx.timeout)
	}
	if rx.wdTimer == nil {
		t.Fatal("watchdog timer not created")
	}
	// Traffic still flows with the watchdog armed mid-run.
	nf, _ := r.rt.Register("nf", 0)
	acc, _ := r.rt.SearchByName("rev", 0)
	r.settle()
	pkts := []*mbuf.Mbuf{r.packet(t, nf, acc, []byte("watched"))}
	if _, err := r.rt.SendPackets(nf, pkts); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)
	out := make([]*mbuf.Mbuf, 4)
	if got, err := r.rt.ReceivePackets(nf, out); err != nil || got != 1 {
		t.Fatalf("receive %d err %v", got, err)
	}
	_ = r.pool.Free(out[0])
	if st, _ := r.rt.Stats(0); st.WatchdogTimeouts != 0 {
		t.Errorf("clean batch counted a timeout: %+v", st)
	}
	// Disarm: the timer stops and new batches go unwatched.
	if err := r.rt.SetWatchdogTimeout(0); err != nil {
		t.Fatal(err)
	}
	if tx.watchdog != 0 || rx.wdTimer.Armed() {
		t.Error("watchdog still armed after disarm")
	}
}

func TestClearFallbackLive(t *testing.T) {
	r := newRig(t, Config{WatchdogTimeout: 250 * eventsim.Microsecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	if _, err := r.rt.SearchByName("rev", 0); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if err := r.rt.ClearFallback("rev", 1); !errors.Is(err, ErrUnknownHF) {
		t.Errorf("wrong node accepted: %v", err)
	}
	if err := r.rt.InstallFallback("rev", 0); err != nil {
		t.Fatal(err)
	}
	e := r.rt.byName("rev", 0)
	if e.fallback == nil {
		t.Fatal("fallback not installed")
	}
	if err := r.rt.ClearFallback("rev", 0); err != nil {
		t.Fatal(err)
	}
	if e.fallback != nil {
		t.Error("fallback still installed after clear")
	}
}

func TestAccessors(t *testing.T) {
	r := newRig(t, Config{Nodes: 1}, moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	if r.rt.Nodes() != 1 {
		t.Errorf("Nodes = %d", r.rt.Nodes())
	}
	if err := r.rt.InstallFallback("rev", 0); !errors.Is(err, ErrUnknownHF) {
		t.Errorf("InstallFallback before load: %v", err)
	}
	if err := r.rt.InstallFallback("nope", 0); err == nil || !strings.Contains(err.Error(), "no module") {
		t.Errorf("InstallFallback of a module not in the database: %v", err)
	}
	if _, err := r.rt.AccInfo(99); !errors.Is(err, ErrUnknownAcc) {
		t.Errorf("AccInfo unknown: %v", err)
	}
	var accs []AccID
	for i := 0; i < 3; i++ {
		acc, err := r.rt.LoadPR("rev", 0)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, acc)
	}
	r.settle()
	// A search answers with the newest of repeated loads; evicting an
	// older instance must leave the newest answering.
	if err := r.rt.Evict(accs[1]); err != nil {
		t.Fatal(err)
	}
	if ids := r.rt.AccIDs(); len(ids) != 2 || ids[0] != accs[0] || ids[1] != accs[2] {
		t.Errorf("AccIDs = %v, want [%d %d]", ids, accs[0], accs[2])
	}
	if acc, err := r.rt.SearchByName("rev", 0); err != nil || acc != accs[2] {
		t.Errorf("SearchByName after evict = %d err %v, want %d", acc, err, accs[2])
	}
}

// TestSearchByNameFindsLiveRowAfterEvict: with two instances of one hf on
// a node, evicting the newer leaves the older to answer a search — no
// fresh load — and the fallback calls act on it.
func TestSearchByNameFindsLiveRowAfterEvict(t *testing.T) {
	r := newRig(t, Config{}, revSpec())
	older, err := r.rt.LoadPR("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	newer, err := r.rt.LoadPR("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	if err := r.rt.Evict(newer); err != nil {
		t.Fatal(err)
	}
	luts := r.dev.AvailableLUTs()
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil || acc != older {
		t.Fatalf("SearchByName after evicting the newer = %d err %v, want %d", acc, err, older)
	}
	if got := r.dev.AvailableLUTs(); got != luts {
		t.Errorf("SearchByName loaded a duplicate: LUTs %d -> %d", luts, got)
	}
	if ids := r.rt.AccIDs(); !reflect.DeepEqual(ids, []AccID{older}) {
		t.Errorf("AccIDs = %v, want [%d]", ids, older)
	}
	if err := r.rt.InstallFallback("rev", 0); err != nil {
		t.Fatal(err)
	}
	if r.rt.accs[older].fallback == nil {
		t.Error("InstallFallback missed the live row")
	}
	if err := r.rt.ClearFallback("rev", 0); err != nil {
		t.Fatal(err)
	}
	if r.rt.accs[older].fallback != nil {
		t.Error("ClearFallback missed the live row")
	}
	checkAccTable(t, r)
}
