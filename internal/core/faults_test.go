package core

import (
	"bytes"
	"flag"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// chaosSeed reseeds the chaos tests: go test -run Chaos -seed=12345.
// Every failing sequence reproduces from its seed alone.
var chaosSeed = flag.Uint64("seed", 7, "fault-injection seed for the chaos tests")

// newFaultRig is newRig with a fault plan on the runtime config, which
// NewRuntime hands to every injection layer (DMA engine, FPGA device,
// runtime): one plan, one seed, one reproducible run. poolCap 0 selects
// 1024 mbufs.
func newFaultRig(t *testing.T, cfg Config, plan *faultinject.Plan, poolCap int, specs ...fpga.ModuleSpec) *rig {
	t.Helper()
	if poolCap == 0 {
		poolCap = 1024
	}
	cfg.Faults = plan
	return newPoolRig(t, cfg, poolCap, specs...)
}

func revSpec() fpga.ModuleSpec {
	return moduleSpec("rev", func() fpga.Module { return reverseModule{} })
}

// reversed returns payload byte-reversed, as reverseModule produces it.
func reversed(p []byte) []byte {
	out := make([]byte, len(p))
	for i := range p {
		out[i] = p[len(p)-1-i]
	}
	return out
}

func (r *rig) stats(t *testing.T) TransferStats {
	t.Helper()
	s, err := r.rt.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// --- DMA retry ----------------------------------------------------------

func TestDMARetryRecoversTransientFault(t *testing.T) {
	// One H2C and one C2H post fail; both are within the retry budget, so
	// every packet still arrives.
	plan := mustPlan(t, *chaosSeed,
		faultinject.Spec{Kind: faultinject.DMAH2CError, EveryN: 1, Count: 1},
		faultinject.Spec{Kind: faultinject.DMAC2HError, EveryN: 1, Count: 1})
	r := newFaultRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, plan, 0, revSpec())
	nf, _ := r.rt.Register("retry", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	sendBurst(t, r, nf, acc, 16)
	s := r.stats(t)
	if s.DMARetries != 2 || s.DMARetryGiveUps != 0 {
		t.Errorf("retries=%d giveups=%d, want 2/0", s.DMARetries, s.DMARetryGiveUps)
	}
	if s.PktsDistributed != 16 || s.DropFault != 0 {
		t.Errorf("distributed=%d dropFault=%d, want 16/0", s.PktsDistributed, s.DropFault)
	}
	out := make([]*mbuf.Mbuf, 32)
	got, _ := r.rt.ReceivePackets(nf, out)
	if got != 16 {
		t.Errorf("received %d packets, want 16", got)
	}
	for i := 0; i < got; i++ {
		_ = r.pool.Free(out[i])
	}
	checkNoLeaks(t, r)
}

func TestDMARetryGivesUpAndAttributes(t *testing.T) {
	// Every H2C post fails: the first batch burns the full retry budget,
	// gives up, and its packets are dropped with an attributed reason.
	plan := mustPlan(t, *chaosSeed,
		faultinject.Spec{Kind: faultinject.DMAH2CError, EveryN: 1})
	r := newFaultRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, plan, 0, revSpec())
	nf, _ := r.rt.Register("giveup", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	sendBurst(t, r, nf, acc, 16)
	s := r.stats(t)
	if s.DMARetryGiveUps == 0 {
		t.Error("no give-up recorded")
	}
	if s.DropFault != 16 || s.PktsDistributed != 0 {
		t.Errorf("dropFault=%d distributed=%d, want 16/0", s.DropFault, s.PktsDistributed)
	}
	// Every injected fault is accounted for: each failed post either
	// scheduled a retry or gave up.
	injected := plan.Injected(faultinject.DMAH2CError)
	if s.DMARetries+s.DMARetryGiveUps != injected {
		t.Errorf("retries+giveups=%d, injected=%d", s.DMARetries+s.DMARetryGiveUps, injected)
	}
	checkNoLeaks(t, r)
}

// --- Corruption & completion stalls -------------------------------------

func TestCorruptResponseDropsBatchAttributed(t *testing.T) {
	plan := mustPlan(t, *chaosSeed,
		faultinject.Spec{Kind: faultinject.DMAC2HCorrupt, EveryN: 1, Count: 1})
	r := newFaultRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, plan, 0, revSpec())
	nf, _ := r.rt.Register("corrupt", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	sendBurst(t, r, nf, acc, 8)
	s := r.stats(t)
	if s.CorruptBatches != 1 {
		t.Errorf("corruptBatches=%d, want 1", s.CorruptBatches)
	}
	if s.DropCorrupt != 8 || s.PktsDistributed != 0 {
		t.Errorf("dropCorrupt=%d distributed=%d, want 8/0", s.DropCorrupt, s.PktsDistributed)
	}
	if h, _ := r.rt.AccHealth(acc); h.Faults == 0 {
		t.Error("corrupt batch not attributed to accelerator health")
	}
	checkNoLeaks(t, r)
}

func TestCompletionStallDelaysButDelivers(t *testing.T) {
	plan := mustPlan(t, *chaosSeed,
		faultinject.Spec{Kind: faultinject.CompletionStall, EveryN: 1, Count: 1,
			Stall: 40 * eventsim.Microsecond})
	r := newFaultRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, plan, 0, revSpec())
	nf, _ := r.rt.Register("stall", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	sendBurst(t, r, nf, acc, 8)
	s := r.stats(t)
	if s.CompletionStalls != 1 {
		t.Errorf("completionStalls=%d, want 1", s.CompletionStalls)
	}
	if s.PktsDistributed != 8 || s.DropFault != 0 {
		t.Errorf("distributed=%d dropFault=%d, want 8/0", s.PktsDistributed, s.DropFault)
	}
	out := make([]*mbuf.Mbuf, 16)
	got, _ := r.rt.ReceivePackets(nf, out)
	for i := 0; i < got; i++ {
		_ = r.pool.Free(out[i])
	}
	checkNoLeaks(t, r)
}

// --- Watchdog, quarantine, recovery -------------------------------------

func TestWatchdogQuarantinesHungModuleAndRecovers(t *testing.T) {
	plan := mustPlan(t, *chaosSeed,
		faultinject.Spec{Kind: faultinject.ModuleHang, EveryN: 1, Count: 1})
	r := newFaultRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, plan, 0, revSpec())
	nf, _ := r.rt.Register("hang", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	// First batch hangs on the region; nothing completes on its own.
	sendBurst(t, r, nf, acc, 8)
	s := r.stats(t)
	if s.WatchdogTimeouts == 0 {
		t.Fatal("watchdog never noticed the hung batch")
	}
	// The hard deadline is soft deadline + 3x timeout (1 ms with the
	// 250 us default); run past it.
	r.sim.Run(r.sim.Now() + 2*eventsim.Millisecond)
	s = r.stats(t)
	if s.ForcedQuarantines == 0 {
		t.Fatal("hard deadline never forced recovery")
	}
	// Give the forced PR reload time to finish, then check the batch was
	// flushed (dropped, not leaked) and the accelerator healed.
	r.settle()
	s = r.stats(t)
	if s.DropFault != 8 {
		t.Errorf("dropFault=%d, want the 8 hung packets", s.DropFault)
	}
	h, err := r.rt.AccHealth(acc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Quarantines != 1 || h.Reloads != 1 || h.Health != HealthHealthy || h.Reloading {
		t.Errorf("health after recovery: %+v", h)
	}
	checkNoLeaks(t, r)

	// The healed accelerator processes traffic normally again.
	sendBurst(t, r, nf, acc, 8)
	out := make([]*mbuf.Mbuf, 16)
	got, _ := r.rt.ReceivePackets(nf, out)
	if got != 8 {
		t.Fatalf("post-recovery: received %d packets, want 8", got)
	}
	for i := 0; i < got; i++ {
		if out[i].Status != mbuf.StatusOK {
			t.Errorf("post-recovery packet status %v", out[i].Status)
		}
		_ = r.pool.Free(out[i])
	}
	checkNoLeaks(t, r)
}

// TestHangRecoveredWithoutRuntimePlan arms the device alone, as the
// board-failover experiment arms board 0: the runtime has no plan of its
// own, and its watchdog still catches the hung batch, quarantines and
// reloads the accelerator, and returns the hung packets to the pool.
func TestHangRecoveredWithoutRuntimePlan(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, revSpec())
	nf, _ := r.rt.Register("hang", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	r.dev.SetFaults(mustPlan(t, *chaosSeed,
		faultinject.Spec{Kind: faultinject.ModuleHang, EveryN: 1, Count: 1}))

	sendBurst(t, r, nf, acc, 8)
	r.settle()
	s := r.stats(t)
	if s.WatchdogTimeouts != 1 || s.ForcedQuarantines == 0 {
		t.Errorf("watchdog timeouts %d, forced quarantines %d: want 1 and at least 1",
			s.WatchdogTimeouts, s.ForcedQuarantines)
	}
	if s.DropFault != 8 {
		t.Errorf("dropFault=%d, want the 8 hung packets", s.DropFault)
	}
	h, err := r.rt.AccHealth(acc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Quarantines != 1 || h.Reloads != 1 || h.Health != HealthHealthy {
		t.Errorf("health after recovery: %+v", h)
	}
	checkNoLeaks(t, r)
}

func TestQuarantineRoutesToFallback(t *testing.T) {
	// Every dispatch fails: consecutive module errors degrade then
	// quarantine the accelerator; from then on the registered software
	// fallback carries the traffic with StatusFallback.
	plan := mustPlan(t, *chaosSeed,
		faultinject.Spec{Kind: faultinject.ModuleError, EveryN: 1})
	r := newFaultRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, plan, 0, revSpec())
	nf, _ := r.rt.Register("deg", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.InstallFallback("rev", 0); err != nil {
		t.Fatal(err)
	}
	r.settle()

	payload := []byte("0123456789abcdef")
	want := reversed(payload)
	delivered := 0
	out := make([]*mbuf.Mbuf, 64)
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			m := r.packet(t, nf, acc, payload)
			if n, _ := r.rt.SendPackets(nf, []*mbuf.Mbuf{m}); n != 1 {
				_ = r.pool.Free(m)
			}
		}
		r.sim.Run(r.sim.Now() + 200*eventsim.Microsecond)
		got, _ := r.rt.ReceivePackets(nf, out)
		for i := 0; i < got; i++ {
			if out[i].Status == mbuf.StatusFallback {
				if !bytes.Equal(out[i].Data(), want) {
					t.Fatal("fallback did not process the packet")
				}
				delivered++
			}
			_ = r.pool.Free(out[i])
		}
	}
	if delivered == 0 {
		t.Error("no fallback-processed packets delivered")
	}
	s := r.stats(t)
	if s.FallbackBatches == 0 || s.PktsFallback == 0 {
		t.Errorf("fallbackBatches=%d pktsFallback=%d", s.FallbackBatches, s.PktsFallback)
	}
	h, _ := r.rt.AccHealth(acc)
	if h.Quarantines == 0 {
		t.Error("accelerator never quarantined")
	}
	checkNoLeaks(t, r)
}

func TestQuarantineWithoutFallbackDeliversUnprocessed(t *testing.T) {
	plan := mustPlan(t, *chaosSeed,
		faultinject.Spec{Kind: faultinject.ModuleError, EveryN: 1})
	r := newFaultRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, plan, 0, revSpec())
	nf, _ := r.rt.Register("raw", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	payload := []byte("0123456789abcdef")
	unprocessed := 0
	out := make([]*mbuf.Mbuf, 64)
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			m := r.packet(t, nf, acc, payload)
			if n, _ := r.rt.SendPackets(nf, []*mbuf.Mbuf{m}); n != 1 {
				_ = r.pool.Free(m)
			}
		}
		r.sim.Run(r.sim.Now() + 200*eventsim.Microsecond)
		got, _ := r.rt.ReceivePackets(nf, out)
		for i := 0; i < got; i++ {
			if out[i].Status == mbuf.StatusUnprocessed {
				if !bytes.Equal(out[i].Data(), payload) {
					t.Fatal("unprocessed packet was modified")
				}
				unprocessed++
			}
			_ = r.pool.Free(out[i])
		}
	}
	if unprocessed == 0 {
		t.Error("no unprocessed packets delivered")
	}
	if s := r.stats(t); s.UnprocessedBatches == 0 || s.PktsUnprocessed == 0 {
		t.Errorf("unprocessedBatches=%d pktsUnprocessed=%d", s.UnprocessedBatches, s.PktsUnprocessed)
	}
	checkNoLeaks(t, r)
}

func TestInstallFallbackReplaysRecordedConfig(t *testing.T) {
	// echo's instances are reverse modules until capture is set; from the
	// install on they record every Configure call.
	var got [][]byte
	capture := false
	r := newRig(t, Config{}, moduleSpec("echo", func() fpga.Module {
		if !capture {
			return reverseModule{}
		}
		return &captureModule{onConfigure: func(b []byte) { got = append(got, append([]byte(nil), b...)) }}
	}))
	if _, err := r.rt.SearchByName("echo", 0); err != nil {
		t.Fatal(err)
	}
	r.settle()
	acc, _ := r.rt.SearchByName("echo", 0)
	if err := r.rt.AccConfigure(acc, []byte("rule-a")); err != nil {
		t.Fatal(err)
	}
	capture = true
	if err := r.rt.InstallFallback("echo", 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], []byte("rule-a")) {
		t.Errorf("replayed blobs %q, want [rule-a]", got)
	}
	// Later configuration is mirrored into the fallback as it arrives.
	if err := r.rt.AccConfigure(acc, []byte("rule-b")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[1], []byte("rule-b")) {
		t.Errorf("mirrored blobs %q, want [rule-a rule-b]", got)
	}
	if err := r.rt.InstallFallback("nope", 0); err == nil {
		t.Error("unknown hf accepted")
	}
	if _, err := r.rt.AccHealth(AccID(99)); err == nil {
		t.Error("unknown acc accepted")
	}
}

// captureModule records Configure calls and processes nothing.
type captureModule struct{ onConfigure func([]byte) }

func (c *captureModule) Configure(b []byte) error {
	c.onConfigure(b)
	return nil
}

func (c *captureModule) ProcessBatch(dst, in []byte) ([]byte, error) {
	return append(dst, in...), nil
}

// --- Shutdown ordering (satellite c) ------------------------------------

func TestDeviceShutdownMidReconfigurationDeliversUnprocessed(t *testing.T) {
	// The accelerator's PR never completes: the device shuts down first.
	// Held batches must not be stranded — they are rerouted as
	// unprocessed deliveries instead.
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, revSpec())
	nf, _ := r.rt.Register("shut", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	// No settle: the region is still reconfiguring.
	payload := []byte("held-while-loading")
	pkts := make([]*mbuf.Mbuf, 8)
	for i := range pkts {
		pkts[i] = r.packet(t, nf, acc, payload)
	}
	if n, _ := r.rt.SendPackets(nf, pkts); n != 8 {
		t.Fatal("send failed")
	}
	r.sim.Run(r.sim.Now() + 100*eventsim.Microsecond) // staged and held
	r.dev.Shutdown()
	r.settle()
	out := make([]*mbuf.Mbuf, 16)
	got, _ := r.rt.ReceivePackets(nf, out)
	if got != 8 {
		t.Fatalf("received %d packets, want 8", got)
	}
	for i := 0; i < got; i++ {
		if out[i].Status != mbuf.StatusUnprocessed || !bytes.Equal(out[i].Data(), payload) {
			t.Errorf("packet %d: status=%v", i, out[i].Status)
		}
		_ = r.pool.Free(out[i])
	}
	if s := r.stats(t); s.UnprocessedBatches == 0 {
		t.Error("no unprocessed batch counted")
	}
	checkNoLeaks(t, r)
}

// --- Unregister in-flight drain (satellite a) ----------------------------

func TestUnregisterDrainsInFlightPackets(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, revSpec())
	nf, _ := r.rt.Register("leaver", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	// First burst completes and parks on the OBQ.
	sendBurst(t, r, nf, acc, 16)
	// Second burst is still in flight when the NF unregisters.
	base := r.rt.nodeTx[0].stats.BatchesSent
	pkts := make([]*mbuf.Mbuf, 16)
	for i := range pkts {
		pkts[i] = r.packet(t, nf, acc, bytes.Repeat([]byte{0x33}, 128))
	}
	if n, _ := r.rt.SendPackets(nf, pkts); n != 16 {
		t.Fatal("send failed")
	}
	for i := 0; i < 1000 && r.rt.nodeTx[0].stats.BatchesSent == base; i++ {
		r.sim.Run(r.sim.Now() + eventsim.Microsecond)
	}
	if err := r.rt.Unregister(nf); err != nil {
		t.Fatal(err)
	}
	// Parked packets were freed synchronously by Unregister.
	if n := r.pool.InUse(); n > 16 {
		t.Errorf("%d mbufs still held right after unregister (parked OBQ not drained)", n)
	}
	r.settle()
	if s := r.stats(t); s.DropNFClosed == 0 {
		t.Error("in-flight packets not attributed to DropNFClosed")
	}
	checkNoLeaks(t, r)
}

// --- OBQ overflow under churn (satellite b) ------------------------------

func TestOBQOverflowChurnLeakFree(t *testing.T) {
	r := newPoolRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond}, 2048, revSpec())
	nf, _ := r.rt.Register("churn", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	out := make([]*mbuf.Mbuf, r.rt.nfs[nf-1].obq.Capacity())
	const rounds, burst = 25, 16
	var received uint64
	for round := 0; round < rounds; round++ {
		// Overrun an OBQ with 3 free slots, then drain it.
		r.fillOBQ(t, nf, 3)
		sendBurst(t, r, nf, acc, burst)
		got, _ := r.rt.ReceivePackets(nf, out)
		for i := 0; i < got; i++ {
			if string(out[i].Data()) != "filler" {
				received++
			}
			_ = r.pool.Free(out[i])
		}
	}
	s := r.stats(t)
	if s.DropOBQFull == 0 {
		t.Error("no OBQ-full drop recorded")
	}
	if received+s.DropOBQFull != rounds*burst {
		t.Errorf("received %d + DropOBQFull %d != %d sent", received, s.DropOBQFull, rounds*burst)
	}
	if s.PktsDistributed != received+s.DropUnknownNF+s.DropNFClosed+s.DropOBQFull {
		t.Errorf("delivery conservation violated: received %d, %+v", received, s)
	}
	checkNoLeaks(t, r)
}

// --- Chaos soak (tentpole acceptance) ------------------------------------

// TestChaosStorm drives a seeded storm of every fault kind that strikes
// one board's data path through the full pipeline and asserts the
// robustness acceptance criteria: zero buffer leaks/double returns, every
// injected fault detected and attributed, exact packet conservation
// across the drop-reason ledger, one trace span per flushed batch, at
// least one quarantine + recovery, and goodput back above 90% once the
// storm passes. Reproduce a failure with:
//
//	go test -run Chaos -seed=<seed> ./internal/core
func TestChaosStorm(t *testing.T) {
	total := 10000
	if testing.Short() {
		total = 2000
	}
	us := eventsim.Microsecond
	specs := []faultinject.Spec{
		{Kind: faultinject.DMAH2CError, EveryN: 41, Count: 12},
		{Kind: faultinject.DMAH2CCorrupt, EveryN: 97, Count: 5},
		{Kind: faultinject.DMAH2CStall, EveryN: 29, Count: 15, Stall: 30 * us},
		{Kind: faultinject.DMAC2HError, EveryN: 43, Count: 12},
		{Kind: faultinject.DMAC2HCorrupt, EveryN: 89, Count: 5},
		{Kind: faultinject.DMAC2HStall, EveryN: 31, Count: 15, Stall: 30 * us},
		{Kind: faultinject.ModuleError, EveryN: 13, Count: 25},
		{Kind: faultinject.ModuleGarbage, EveryN: 53, Count: 6},
		{Kind: faultinject.ModuleHang, EveryN: 101, Count: 2},
		{Kind: faultinject.RegionSEU, EveryN: 151, Count: 1},
		{Kind: faultinject.CompletionStall, EveryN: 37, Count: 10, Stall: 20 * us},
		{Kind: faultinject.PCIeLinkFlap, EveryN: 47, Count: 10},
	}
	plan := mustPlan(t, *chaosSeed, specs...)
	tel := telemetry.New(64)
	// Small batches make many of them, so every fault kind gets draws
	// even in -short mode.
	r := newFaultRig(t, Config{FlushTimeout: 5 * us, BatchBytes: 1024, Telemetry: tel}, plan, 2048, revSpec())
	nf, _ := r.rt.Register("storm", 0)
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.InstallFallback("rev", 0); err != nil {
		t.Fatal(err)
	}
	r.settle()

	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i)
	}
	wantRev := reversed(payload)

	var sent, delivered, badPayload uint64
	statuses := map[mbuf.Status]uint64{}
	out := make([]*mbuf.Mbuf, 256)
	drain := func() {
		for {
			got, _ := r.rt.ReceivePackets(nf, out)
			if got == 0 {
				return
			}
			for i := 0; i < got; i++ {
				m := out[i]
				delivered++
				statuses[m.Status]++
				switch m.Status {
				case mbuf.StatusUnprocessed:
					if !bytes.Equal(m.Data(), payload) {
						badPayload++
					}
				default:
					if !bytes.Equal(m.Data(), wantRev) {
						badPayload++
					}
				}
				_ = r.pool.Free(m)
			}
		}
	}

	for sent < uint64(total) {
		burst := make([]*mbuf.Mbuf, 0, 32)
		for i := 0; i < 32; i++ {
			burst = append(burst, r.packet(t, nf, acc, payload))
		}
		n, serr := r.rt.SendPackets(nf, burst)
		if serr != nil {
			t.Fatal(serr)
		}
		sent += uint64(n)
		for _, m := range burst[n:] {
			_ = r.pool.Free(m)
		}
		r.sim.Run(r.sim.Now() + 20*us)
		drain()
	}
	// Let in-flight work, watchdog escalations and PR reloads finish.
	r.sim.Run(r.sim.Now() + 200*eventsim.Millisecond)
	drain()

	// 1. No leaks, no double or foreign returns, anywhere.
	checkNoLeaks(t, r)

	// Burn off fault budgets deferred while the accelerator was
	// quarantined (fallback batches draw no module faults), so the
	// attribution checks below see the whole plan and the goodput tail
	// measures the recovered system, not the storm's stragglers.
	for round := 0; round < 400 && !plan.Exhausted(); round++ {
		burst := make([]*mbuf.Mbuf, 0, 32)
		for i := 0; i < 32; i++ {
			burst = append(burst, r.packet(t, nf, acc, payload))
		}
		n, _ := r.rt.SendPackets(nf, burst)
		sent += uint64(n)
		for _, m := range burst[n:] {
			_ = r.pool.Free(m)
		}
		r.sim.Run(r.sim.Now() + 20*us)
		drain()
	}
	if !plan.Exhausted() {
		t.Logf("note: plan not exhausted: %s", plan)
	}
	r.sim.Run(r.sim.Now() + 200*eventsim.Millisecond)
	drain()

	// 2. Every injected fault was observed where it landed.
	s := r.stats(t)
	h2c, c2h := rigDMA(r).DirStats(pcie.H2C), rigDMA(r).DirStats(pcie.C2H)
	if h2c.Faults != plan.Injected(faultinject.DMAH2CError) ||
		h2c.Corrupted != plan.Injected(faultinject.DMAH2CCorrupt) ||
		h2c.Stalled != plan.Injected(faultinject.DMAH2CStall) {
		t.Errorf("H2C stats %+v do not match injections", h2c)
	}
	if c2h.Faults != plan.Injected(faultinject.DMAC2HError) ||
		c2h.Corrupted != plan.Injected(faultinject.DMAC2HCorrupt) ||
		c2h.Stalled != plan.Injected(faultinject.DMAC2HStall) {
		t.Errorf("C2H stats %+v do not match injections", c2h)
	}
	fc := r.dev.FaultCounters()
	if fc.ModuleErrors != plan.Injected(faultinject.ModuleError) ||
		fc.GarbageBatches != plan.Injected(faultinject.ModuleGarbage) ||
		fc.Hangs != plan.Injected(faultinject.ModuleHang) ||
		fc.SEUs != plan.Injected(faultinject.RegionSEU) {
		t.Errorf("FPGA counters %+v do not match injections", fc)
	}
	if fc.HungFlushed != fc.Hangs {
		t.Errorf("hung=%d flushed=%d: a hung batch was never recovered", fc.Hangs, fc.HungFlushed)
	}
	if s.CompletionStalls != plan.Injected(faultinject.CompletionStall) {
		t.Errorf("completionStalls=%d injected=%d", s.CompletionStalls, plan.Injected(faultinject.CompletionStall))
	}
	if h2c.LinkFlaps+c2h.LinkFlaps != plan.Injected(faultinject.PCIeLinkFlap) {
		t.Errorf("link flaps %d+%d, injected=%d", h2c.LinkFlaps, c2h.LinkFlaps, plan.Injected(faultinject.PCIeLinkFlap))
	}
	checkRetryLedger(t, s, h2c, c2h)
	checkSpansConserved(t, tel, s)

	// 3. Exact packet conservation across the drop-reason ledger.
	if s.IBQDrained != s.PktsPacked+s.StagingDrops {
		t.Errorf("packer conservation: drained=%d packed=%d staging=%d", s.IBQDrained, s.PktsPacked, s.StagingDrops)
	}
	if s.PktsPacked != s.PktsDistributed+s.DropFault+s.DropCorrupt+s.DropMismatch+s.DropNoRoute {
		t.Errorf("transfer conservation violated: %+v", s)
	}
	if delivered != s.PktsDistributed-s.DropUnknownNF-s.DropNFClosed-s.DropOBQFull {
		t.Errorf("delivery conservation: delivered=%d distributed=%d drops=%d/%d/%d",
			delivered, s.PktsDistributed, s.DropUnknownNF, s.DropNFClosed, s.DropOBQFull)
	}
	if sent != s.IBQDrained {
		t.Errorf("sent=%d != drained=%d", sent, s.IBQDrained)
	}
	if badPayload != 0 {
		t.Errorf("%d delivered packets had damaged payloads", badPayload)
	}

	// 4. Detection and recovery actually ran.
	if s.WatchdogTimeouts == 0 {
		t.Error("watchdog never fired despite injected hangs")
	}
	h, _ := r.rt.AccHealth(acc)
	if h.Quarantines == 0 {
		t.Error("no quarantine despite hangs and error storms")
	}
	if h.Health != HealthHealthy {
		t.Errorf("accelerator did not heal: %+v", h)
	}

	// 5. Goodput recovers once the storm passes: a clean tail burst is
	// delivered at >= 90%, and FPGA processing (not just fallback) has
	// resumed.
	tailStart := delivered
	okBefore := statuses[mbuf.StatusOK]
	const tail = 500
	for sentTail := 0; sentTail < tail; {
		burst := make([]*mbuf.Mbuf, 0, 32)
		for i := 0; i < 32 && sentTail+len(burst) < tail; i++ {
			burst = append(burst, r.packet(t, nf, acc, payload))
		}
		n, _ := r.rt.SendPackets(nf, burst)
		sentTail += n
		for _, m := range burst[n:] {
			_ = r.pool.Free(m)
		}
		r.sim.Run(r.sim.Now() + 20*us)
		drain()
	}
	r.sim.Run(r.sim.Now() + 5*eventsim.Millisecond)
	drain()
	tailDelivered := delivered - tailStart
	if float64(tailDelivered) < 0.9*tail {
		t.Errorf("post-storm goodput: %d of %d delivered", tailDelivered, tail)
	}
	if statuses[mbuf.StatusOK] == okBefore {
		t.Error("no FPGA-processed packets after recovery")
	}
	checkNoLeaks(t, r)
	checkAccTable(t, r)
	t.Logf("chaos seed=%d: sent=%d delivered=%d statuses=%v\nstats=%+v\nplan=%s",
		*chaosSeed, sent, delivered, statuses, s, plan)
}

// TestChaosEachFaultKind arms each fault kind alone on a fresh two-board
// rig, runs traffic until the plan is spent, and checks that the counter
// attributing the kind saw every injection, that nothing leaked, and that
// every flushed batch closed its trace span. The rows go in Kind order,
// one per kind, so a kind added to faultinject without a row here fails.
func TestChaosEachFaultKind(t *testing.T) {
	us := eventsim.Microsecond
	type observed struct {
		h2c, c2h pcie.Stats // summed over both boards
		fpga     fpga.FaultStats
		stats    TransferStats
	}
	rows := []struct {
		spec    faultinject.Spec
		counter func(o *observed) uint64
	}{
		{faultinject.Spec{Kind: faultinject.DMAH2CError, EveryN: 2, Count: 3}, func(o *observed) uint64 { return o.h2c.Faults }},
		{faultinject.Spec{Kind: faultinject.DMAH2CCorrupt, EveryN: 2, Count: 3}, func(o *observed) uint64 { return o.h2c.Corrupted }},
		{faultinject.Spec{Kind: faultinject.DMAH2CStall, EveryN: 2, Count: 3, Stall: 30 * us}, func(o *observed) uint64 { return o.h2c.Stalled }},
		{faultinject.Spec{Kind: faultinject.DMAC2HError, EveryN: 2, Count: 3}, func(o *observed) uint64 { return o.c2h.Faults }},
		{faultinject.Spec{Kind: faultinject.DMAC2HCorrupt, EveryN: 2, Count: 3}, func(o *observed) uint64 { return o.c2h.Corrupted }},
		{faultinject.Spec{Kind: faultinject.DMAC2HStall, EveryN: 2, Count: 3, Stall: 30 * us}, func(o *observed) uint64 { return o.c2h.Stalled }},
		{faultinject.Spec{Kind: faultinject.ModuleError, EveryN: 2, Count: 3}, func(o *observed) uint64 { return o.fpga.ModuleErrors }},
		{faultinject.Spec{Kind: faultinject.ModuleGarbage, EveryN: 2, Count: 3}, func(o *observed) uint64 { return o.fpga.GarbageBatches }},
		{faultinject.Spec{Kind: faultinject.ModuleHang, EveryN: 2, Count: 1}, func(o *observed) uint64 { return o.fpga.Hangs }},
		{faultinject.Spec{Kind: faultinject.RegionSEU, EveryN: 2, Count: 1}, func(o *observed) uint64 { return o.fpga.SEUs }},
		{faultinject.Spec{Kind: faultinject.CompletionStall, EveryN: 2, Count: 3, Stall: 20 * us}, func(o *observed) uint64 { return o.stats.CompletionStalls }},
		{faultinject.Spec{Kind: faultinject.BoardOffline, EveryN: 2, Count: 1}, func(o *observed) uint64 { return o.fpga.BoardLosses }},
		{faultinject.Spec{Kind: faultinject.ICAPWedge, EveryN: 1, Count: 1}, func(o *observed) uint64 { return o.fpga.ICAPWedges }},
		{faultinject.Spec{Kind: faultinject.PCIeLinkFlap, EveryN: 2, Count: 3}, func(o *observed) uint64 { return o.h2c.LinkFlaps + o.c2h.LinkFlaps }},
	}
	if len(rows) != int(faultinject.NumKinds) {
		t.Fatalf("%d rows for %d fault kinds", len(rows), faultinject.NumKinds)
	}
	for i, row := range rows {
		k := row.spec.Kind
		if k != faultinject.Kind(i) {
			t.Fatalf("row %d arms %s, want %s", i, k, faultinject.Kind(i))
		}
		t.Run(k.String(), func(t *testing.T) {
			plan := mustPlan(t, *chaosSeed, row.spec)
			tel := telemetry.New(16)
			r, devs := newFleetRig(t, Config{FlushTimeout: 5 * us, BatchBytes: 1024, Faults: plan, Telemetry: tel}, 2, revSpec())
			nf, err := r.rt.Register("kind", 0)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := r.rt.SearchByName("rev", 0)
			if err != nil {
				t.Fatal(err)
			}
			r.settle()
			for round := 0; round < 32 && !plan.Exhausted(); round++ {
				sendBurst(t, r, nf, acc, 32)
				drainOBQ(t, r, nf, nil)
			}
			r.settle()
			drainOBQ(t, r, nf, nil)
			checkNoLeaks(t, r)

			var o observed
			for i, dev := range devs {
				dma := r.rt.boards[i].dma
				h2c, c2h := dma.DirStats(pcie.H2C), dma.DirStats(pcie.C2H)
				o.h2c.Faults += h2c.Faults
				o.h2c.Corrupted += h2c.Corrupted
				o.h2c.Stalled += h2c.Stalled
				o.h2c.LinkFlaps += h2c.LinkFlaps
				o.c2h.Faults += c2h.Faults
				o.c2h.Corrupted += c2h.Corrupted
				o.c2h.Stalled += c2h.Stalled
				o.c2h.LinkFlaps += c2h.LinkFlaps
				fc := dev.FaultCounters()
				o.fpga.ModuleErrors += fc.ModuleErrors
				o.fpga.GarbageBatches += fc.GarbageBatches
				o.fpga.Hangs += fc.Hangs
				o.fpga.SEUs += fc.SEUs
				o.fpga.BoardLosses += fc.BoardLosses
				o.fpga.ICAPWedges += fc.ICAPWedges
			}
			o.stats = r.stats(t)
			injected := plan.Injected(k)
			if got := row.counter(&o); injected == 0 || got != injected {
				t.Errorf("observed %d, injected %d: want equal and non-zero", got, injected)
			}
			checkRetryLedger(t, o.stats, o.h2c, o.c2h)
			checkSpansConserved(t, tel, o.stats)
			checkAccTable(t, r)
		})
	}
}

// checkRetryLedger asserts every failed DMA post, whether an injected
// DMA error or a link flap, either scheduled a retry or gave up.
func checkRetryLedger(t *testing.T, s TransferStats, h2c, c2h pcie.Stats) {
	t.Helper()
	failed := h2c.Faults + c2h.Faults + h2c.LinkFlaps + c2h.LinkFlaps
	if got := s.DMARetries + s.DMARetryGiveUps; got != failed {
		t.Errorf("retries+giveups=%d != failed DMA posts %d", got, failed)
	}
}

// checkSpansConserved asserts, at quiescence, one trace span per batch the
// packer flushed, whatever became of it: a fault path that releases a
// batch without telFinalize (or finalizes it twice) breaks the count.
func checkSpansConserved(t *testing.T, tel *telemetry.Registry, s TransferStats) {
	t.Helper()
	flushed := s.BatchesSent + s.FallbackBatches + s.UnprocessedBatches
	if got := tel.Spans.Count(); got != flushed {
		t.Errorf("%d spans pushed for %d flushed batches (sent %d, fallback %d, unprocessed %d)",
			got, flushed, s.BatchesSent, s.FallbackBatches, s.UnprocessedBatches)
	}
}

// rigDMA is the DMA engine in front of the rig's board 0.
func rigDMA(r *rig) *pcie.Engine { return r.rt.boards[0].dma }

// mustPlan builds a fault plan from known-good specs.
func mustPlan(t testing.TB, seed uint64, specs ...faultinject.Spec) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.NewPlan(seed, specs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
