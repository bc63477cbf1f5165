package core

import (
	"fmt"
	"strconv"

	"github.com/opencloudnext/dhl-go/internal/dhlproto"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/ring"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// TransferStats are the data transfer layer's lifetime counters for one
// NUMA node's TX/RX core pair: one ledger per node, which both engines
// write (the event loop serializes them) and Stats copies out.
//
// The Drop* fields break packet drops down by attributable reason; their
// sum plus PktsDistributed accounts for every packet the Packer accepted,
// so chaos tests can assert conservation:
//
//	IBQDrained == PktsPacked + StagingDrops
//	PktsPacked == PktsDistributed + DropFault + DropCorrupt + DropMismatch + DropNoRoute
//	PktsDistributed == NF-received + OBQ-parked + DropUnknownNF + DropNFClosed + DropOBQFull
//
// NF-received counts what ReceivePackets handed out and OBQ-parked what
// live NFs' OBQs still hold; what an NF's OBQ held when it unregistered
// is DropNFClosed.
type TransferStats struct {
	PktsPacked      uint64
	BatchesSent     uint64
	BytesSent       uint64
	FlushBySize     uint64
	FlushByTimeout  uint64
	DispatchErrors  uint64
	PktsDistributed uint64
	NFIDMismatches  uint64
	CompletionDrops uint64
	IBQDrained      uint64
	// StagingDrops counts packets dropped because they could not be
	// encoded into a batch segment: oversized records, or staging for a
	// still-reconfiguring region outgrowing its fixed segment.
	StagingDrops uint64
	// IBQRejected counts packets the shared IBQ refused at SendPackets
	// because the queue was full. These packets never entered the
	// transfer layer (the caller keeps ownership, so they are outside the
	// IBQDrained identity above); the sending NF learns of them from
	// SendPackets' accepted count, and this is the one place the runtime
	// counts them.
	IBQRejected uint64

	// DMARetries counts transient transfer-fault re-posts; DMARetryGiveUps
	// counts batches that exhausted the retry budget and failed.
	DMARetries      uint64
	DMARetryGiveUps uint64
	// CompletionStalls counts injected completion-ring delivery stalls.
	CompletionStalls uint64
	// WatchdogTimeouts counts batches that missed their soft completion
	// deadline; ForcedQuarantines counts hard-deadline recovery actions.
	WatchdogTimeouts  uint64
	ForcedQuarantines uint64
	// CorruptBatches counts response batches whose framing failed to
	// decode (DMA corruption, module garbage, SEU damage).
	CorruptBatches uint64
	// FallbackBatches / UnprocessedBatches count batches rerouted away
	// from a quarantined accelerator; PktsFallback / PktsUnprocessed count
	// the packets delivered from them (stamped with the matching
	// mbuf.Status).
	FallbackBatches    uint64
	UnprocessedBatches uint64
	PktsFallback       uint64
	PktsUnprocessed    uint64

	// Packet drops by reason. DropFault: the batch's DMA/dispatch chain
	// failed. DropNoRoute: no routable accelerator (unknown acc_id, or
	// staged work of an evicted one). DropCorrupt: record lost to a
	// corrupt response batch. DropMismatch: record withheld because its
	// nf_id did not match the original (isolation). DropUnknownNF /
	// DropNFClosed / DropOBQFull: delivery-side drops at the OBQ.
	DropFault     uint64
	DropNoRoute   uint64
	DropCorrupt   uint64
	DropMismatch  uint64
	DropUnknownNF uint64
	DropNFClosed  uint64
	DropOBQFull   uint64
}

// accState is the Packer's per-accelerator staging area. buf is an
// arena-leased segment (nil when nothing is staged); flush moves it into an
// inflight and the next packet leases a fresh one, so the staging buffer is
// never reallocated or regrown.
type accState struct {
	buf     []byte
	mbufs   []*mbuf.Mbuf
	firstAt eventsim.Time

	// The accelerator's resolved batching knobs, derived by retune from
	// the knob family: its row's own value where it has one, the
	// runtime's default where not. batchCap is the batch-size target;
	// flushTimeout is the deadline pass's forced-flush age.
	batchCap     int
	flushTimeout eventsim.Time
}

// txEngine is one node's TX poll core: shared-IBQ dequeue + Packer + DMA
// posting (Figure 2's input data flow).
type txEngine struct {
	r       *Runtime
	node    int
	pool    *mbuf.Pool
	arena   *batchArena
	loop    *eventsim.PollLoop
	staging []*accState // indexed by acc_id, grown to the largest seen; nil where none was
	order   []AccID     // the ids staging holds, first seen first: deterministic iteration order
	stats   TransferStats
	scratch []*mbuf.Mbuf

	// sends is the per-iteration batch of prepared inflights, reused
	// across polls; commitFn is the commit callback bound once so the
	// hot body never materializes a closure. ibFree recycles inflight
	// objects (with their bound DMA/dispatch callbacks) across batches.
	sends    []*inflight
	ibFree   []*inflight
	commitFn func()

	// watchdog caches Config.WatchdogTimeout (zero when the runtime is
	// unarmed) so commit can skip the watch-list bookkeeping entirely on
	// the fault-free path.
	watchdog eventsim.Time

	// tel/telC are the telemetry registry and this core's padded counter
	// block, both nil when telemetry is off. Every probe on the hot path
	// is behind a tel nil check; recording is atomic and allocation-free.
	tel  *telemetry.Registry
	telC *telemetry.CoreCounters
}

// rxEngine is one node's RX poll core: DMA completion polling +
// Distributor + private-OBQ enqueue (Figure 2's output data flow).
type rxEngine struct {
	r           *Runtime
	node        int
	completions *ring.Ring[*inflight]
	loop        *eventsim.PollLoop
	stats       *TransferStats // the node's one ledger, held by the TX engine
	scratch     []*inflight

	// pending holds the completions claimed by the current iteration,
	// reused across polls; commitFn is bound once like txEngine's.
	pending  []*inflight
	commitFn func()

	// Batch watchdog (armed runtimes only): every committed inflight is
	// watched from DMA post until release; a periodic timer sweeps for
	// deadline misses. The watchdog only observes and escalates — it
	// never releases an inflight itself, so a late completion can still
	// arrive safely (no ABA on recycled objects).
	watch     []*inflight
	wdScratch []*inflight
	wdTimer   *eventsim.Timer
	wdPeriod  eventsim.Time
	timeout   eventsim.Time

	// tel/telC mirror txEngine's telemetry handles for the RX side.
	tel  *telemetry.Registry
	telC *telemetry.CoreCounters
}

// attachCores gives a NUMA node its TX and RX poll cores, cores 2·node and
// 2·node+1 at the testbed clock, and starts the data transfer layer there
// (Table IV: "2 cores for DHL Runtime that one for sending data to FPGA,
// and the other for receiving data from FPGA"). The pool supplies nothing
// on the TX path (packets arrive via the IBQ) but is where the Distributor
// returns dropped packets.
func (r *Runtime) attachCores(node int) error {
	completions, err := ring.New[*inflight]("dma-cq-node"+strconv.Itoa(node),
		1024, ring.SingleProducerConsumer)
	if err != nil {
		return err
	}
	tx := &txEngine{
		r:       r,
		node:    node,
		pool:    r.cfg.Pool,
		arena:   newBatchArena(r.BatchBytes()),
		scratch: make([]*mbuf.Mbuf, defaultBurst),
	}
	rx := &rxEngine{
		r:           r,
		node:        node,
		completions: completions,
		stats:       &tx.stats,
		scratch:     make([]*inflight, defaultBurst),
	}
	rx.commitFn = rx.commit
	rx.loop = eventsim.NewPollLoop(r.sim, eventsim.NewCore(r.sim, 2*node+1, node, perf.TestbedCoreHz),
		perf.PollIdleCycles, rx.body)
	tx.commitFn = tx.commit
	tx.loop = eventsim.NewPollLoop(r.sim, eventsim.NewCore(r.sim, 2*node, node, perf.TestbedCoreHz),
		perf.PollIdleCycles, tx.body)
	// Each core sleeps on the one ring it reads; what tx.body reads besides
	// reaches it as a WakeBy deadline or as retune's poke.
	tx.loop.Watch(r.ibqs[node])
	rx.loop.Watch(completions)
	rx.setWatchdog(tx, r.cfg.WatchdogTimeout)
	if tel := r.tel; tel != nil {
		tx.tel, rx.tel = tel, tel
		tx.telC = tel.RegisterCore("tx", node)
		rx.telC = tel.RegisterCore("rx", node)
		nodeLabel := fmt.Sprintf("node=\"%d\"", node)
		tel.RegisterGauge("dhl_ring_occupancy", fmt.Sprintf("ring=%q", completions.Name()),
			"Current queue depth of a runtime ring (IBQ, OBQ, DMA completion).",
			func() float64 { return float64(completions.Len()) })
		tel.RegisterGauge("dhl_arena_outstanding", nodeLabel,
			"Batch-arena segments currently leased out on the node.",
			func() float64 { return float64(tx.arena.outstanding()) })
		tel.RegisterGauge("dhl_arena_segments", nodeLabel,
			"Batch-arena segments ever grown on the node (freelist high-water mark).",
			func() float64 { return float64(tx.arena.grown) })
		tel.RegisterGauge("dhl_watchdog_watched", nodeLabel,
			"Inflight batches currently under the RX watchdog's deadline watch.",
			func() float64 { return float64(len(rx.watch)) })
	}
	r.nodeTx[node] = tx
	r.nodeRx[node] = rx
	tx.loop.Start()
	rx.loop.Start()
	return nil
}

// Stats reports the transfer-layer counters of one node: a copy of the
// node's ledger.
func (r *Runtime) Stats(node int) (TransferStats, error) {
	if node < 0 || node >= r.cfg.Nodes {
		return TransferStats{}, fmt.Errorf("core: node %d out of range [0,%d)", node, r.cfg.Nodes)
	}
	return r.nodeTx[node].stats, nil
}

// --- TX path -----------------------------------------------------------

// dmaBacklogCap is how far ahead the H2C channel may be booked before the
// TX core stops dequeuing the IBQ and lets producers see it fill: 15 us is
// about a dozen 6 KB transfers (1.2 us each at the DMA model's 42 Gbps),
// and below the 20 us default flush timeout, so back-pressure reaches the
// NFs before a batch staged now could miss its deadline behind the queue.
const dmaBacklogCap = 15 * eventsim.Microsecond

//dhl:hotpath
func (t *txEngine) body() (float64, func()) {
	cycles := 0.0
	now := t.r.sim.Now()
	t.sends = t.sends[:0]

	// Deadline pass: force out batches that have waited past their
	// accelerator's flush timeout. A staged batch makes an idle result of
	// this iteration expire by itself, so the poll loop is told when: at
	// the batch's deadline, or at once for a due batch that flush is
	// holding back while a partial reconfiguration is pending.
	for _, acc := range t.order {
		st := t.staging[acc]
		if len(st.mbufs) == 0 {
			continue
		}
		if now-st.firstAt < st.flushTimeout {
			t.loop.WakeBy(st.firstAt + st.flushTimeout)
		} else if ib := t.flush(acc, st, false); ib != nil {
			t.sends = append(t.sends, ib)
			cycles += perf.RuntimeTxCyclesPerBatch
		} else {
			t.loop.WakeBy(now)
		}
	}

	// Back-pressure: when the DMA engines are booked out past the cap,
	// leave packets in the IBQ so producers see the queue fill up.
	congested := false
	for i := range t.r.boards {
		if t.r.boards[i].dma.Backlog(pcie.H2C) > dmaBacklogCap {
			congested = true
			break
		}
	}
	if congested {
		return cycles + perf.PollIdleCycles, t.pendingCommit()
	}

	n := t.r.ibqs[t.node].DequeueBurst(t.scratch)
	if n == 0 {
		return cycles, t.pendingCommit()
	}
	t.stats.IBQDrained += uint64(n)
	if t.tel != nil {
		// IBQ-wait stage: SendPackets stamp -> this dequeue, per packet.
		for _, m := range t.scratch[:n] {
			if m.QueuedAt > 0 {
				t.tel.Stages[telemetry.StageIBQWait].Observe(now - eventsim.Time(m.QueuedAt))
				m.QueuedAt = 0
			}
		}
	}
	for _, m := range t.scratch[:n] {
		acc := AccID(m.AccID)
		st := t.state(acc)
		if st == nil {
			st = t.newAccState(acc)
		}
		recLen := dhlproto.RecordOverhead + m.Len()
		if len(st.buf)+recLen > st.batchCap && len(st.mbufs) > 0 {
			if ib := t.flush(acc, st, true); ib != nil {
				t.sends = append(t.sends, ib)
				cycles += perf.RuntimeTxCyclesPerBatch
			}
		}
		if st.buf == nil {
			st.buf = t.arena.lease()
		}
		if len(st.mbufs) == 0 {
			st.firstAt = t.r.sim.Now()
		}
		var err error
		st.buf, err = dhlproto.AppendRecordFit(st.buf, m.NFID, m.AccID, m.Data())
		if err != nil {
			// Oversized record, or a held region's staging segment is
			// full: the packet cannot be transported; drop it.
			t.stats.StagingDrops++
			_ = t.pool.Free(m)
			continue
		}
		st.mbufs = append(st.mbufs, m)
		t.stats.PktsPacked++
		cycles += perf.RuntimeTxCyclesPerPkt
		if len(st.buf) >= st.batchCap {
			if ib := t.flush(acc, st, true); ib != nil {
				t.sends = append(t.sends, ib)
				cycles += perf.RuntimeTxCyclesPerBatch
			}
		}
	}
	return cycles, t.pendingCommit()
}

// state returns acc's staging area, nil when no packet has carried acc on
// this node.
//
//dhl:hotpath
func (t *txEngine) state(acc AccID) *accState {
	if int(acc) < len(t.staging) {
		return t.staging[acc]
	}
	return nil
}

// newAccState is the cold constructor for a first-seen acc_id's staging
// area, entered into the table; //go:noinline keeps its allocations out of
// body's //dhl:hotpath range under escape analysis. The id is whatever the
// NF wrote into the mbuf — an unrouted one stages like any other and is
// dropped at flush — so the table can reach 65 536 pointers, no further.
// The knob family lives on the table rows and the runtime, outside the
// staging areas, so values set before the first packet arrived, or across
// a teardown, are picked up here.
//
//go:noinline
func (t *txEngine) newAccState(acc AccID) *accState {
	st := &accState{}
	if grow := int(acc) + 1 - len(t.staging); grow > 0 {
		t.staging = append(t.staging, make([]*accState, grow)...)
	}
	t.staging[acc] = st
	t.order = append(t.order, acc)
	t.retune(acc, st)
	return st
}

// retune derives a staging area's batching knobs from the one knob family:
// the live row's own value where it has one, the runtime's default where
// not; the target takes effect at once. A shortened flush timeout moves a
// staged batch's deadline without touching a ring, so the TX loop is
// poked to read it again.
func (t *txEngine) retune(acc AccID, st *accState) {
	tune := t.r.defaults
	if e := t.r.row(acc); e != nil {
		own := e.tune
		if own.BatchBytes != 0 {
			tune.BatchBytes = own.BatchBytes
		}
		if own.FlushTimeout != 0 {
			tune.FlushTimeout = own.FlushTimeout
		}
	}
	st.batchCap, st.flushTimeout = tune.BatchBytes, tune.FlushTimeout
	t.loop.Poke()
}

// dropStaged frees everything staged in st back to the pool, attributed
// DropNoRoute, and returns its segment: the teardown of staged work that
// has, or has lost, no route — an unknown acc_id at flush or an evicted
// accelerator.
//
//dhl:hotpath
func (t *txEngine) dropStaged(st *accState) {
	t.stats.DropNoRoute += uint64(len(st.mbufs))
	for i, m := range st.mbufs {
		_ = t.pool.Free(m)
		st.mbufs[i] = nil
	}
	st.mbufs = st.mbufs[:0]
	t.arena.ret(st.buf)
	st.buf = nil
}

// pendingCommit returns the bound commit callback when this iteration
// staged DMA posts, nil otherwise. t.sends is not touched again until
// the poll loop has run commit, so reusing the slice is safe.
func (t *txEngine) pendingCommit() func() {
	if len(t.sends) == 0 {
		return nil
	}
	return t.commitFn
}

// commit posts the iteration's staged batches to the DMA engines,
// registering each with the RX watchdog first so the watch covers the
// whole post-to-completion window.
//
//dhl:hotpath
func (t *txEngine) commit() {
	for i, ib := range t.sends {
		t.sends[i] = nil
		if t.watchdog > 0 {
			t.r.nodeRx[t.node].watchAdd(ib)
		}
		ib.send()
	}
	t.sends = t.sends[:0]
}

// flush prepares one staged batch for the DMA engine, returning a pooled
// inflight the poll loop commits when the core has finished packing (or
// nil when nothing is sendable — the region may still be reconfiguring,
// in which case the batch stays staged). The staged segment and mbuf
// slice move into the inflight; the staging area keeps the recycled
// (empty) mbuf slice so neither side reallocates.
//
// Graceful degradation routes here: a quarantined accelerator's batches
// go to the registered software fallback (or straight back to the NF,
// unprocessed) instead of to the board; a shut-down device is treated as
// permanently quarantined so its traffic is never stranded.
//
//dhl:hotpath
func (t *txEngine) flush(acc AccID, st *accState, bySize bool) *inflight {
	e := t.r.row(acc)
	if e == nil || len(st.mbufs) == 0 {
		// Unknown acc_id: nothing routable.
		t.dropStaged(st)
		return nil
	}
	// Routing: the placement layer owns which board/region serves this
	// acc_id. Pick the next weighted-round-robin endpoint, lazily retiring
	// endpoints whose board has died since the last flush. A dead
	// *primary* additionally triggers re-placement on the cold edge —
	// instant promotion of a warm replica, or a live migration (PR reload
	// on a healthy board, config replay, cutover). A quarantined
	// accelerator's primary is disabled by the health FSM, so with no
	// replicas its batches take the fallback/unprocessed path exactly as
	// before routes existed.
	var att *board
	regionIdx := -1
	for {
		ep := e.route.Pick()
		if ep == nil {
			break
		}
		a := &t.r.boards[ep.FPGA]
		if a.dev.IsShutdown() {
			t.r.boardLost(e, ep.FPGA)
			continue
		}
		att = a
		regionIdx = ep.Region
		break
	}
	if att == nil && e.route.HasPending() {
		// A warming endpoint whose board died mid-PR will never become
		// ready — its ICAP completion was abandoned with the board. Take
		// it out of the hold calculus (and re-place a dead pending
		// primary) so held batches degrade instead of waiting forever.
		eps := e.route.Endpoints()
		for i := range eps {
			ep := &eps[i]
			if ep.Ready || ep.Disabled || !t.r.boards[ep.FPGA].dev.IsShutdown() {
				continue
			}
			t.r.boardLost(e, ep.FPGA)
		}
		if e.route.HasPending() {
			return nil // hold until a PR (initial load or migration) completes
		}
	}
	quarantined := att == nil

	if bySize {
		t.stats.FlushBySize++
	} else {
		t.stats.FlushByTimeout++
	}

	ib := t.getInflight()
	ib.buf, st.buf = st.buf, nil
	ib.meta, st.mbufs = st.mbufs, ib.meta

	ib.hf = e
	ib.hfEpoch = e.epoch
	if att != nil {
		ib.dma = att.dma
		ib.dev = att.dev
		ib.regionIdx = regionIdx
	}
	if t.tel != nil {
		// Open the batch's trace span: identity, size, and the pack-stage
		// boundary (first packet staged -> this flush).
		sp := &ib.span
		sp.Start = st.firstAt
		sp.StageEnd[telemetry.StagePack] = t.r.sim.Now()
		sp.NFID = ib.meta[0].NFID
		sp.AccID = uint16(acc)
		sp.Packets = uint32(len(ib.meta))
		sp.Bytes = uint32(len(ib.buf))
	}
	if quarantined {
		if e.fallback != nil {
			ib.mode = modeFallback
			t.stats.FallbackBatches++
		} else {
			ib.mode = modeUnprocessed
			t.stats.UnprocessedBatches++
		}
		return ib
	}
	t.stats.BatchesSent++
	t.stats.BytesSent += uint64(len(ib.buf))
	return ib
}

// --- RX path -----------------------------------------------------------

//dhl:hotpath
func (x *rxEngine) body() (float64, func()) {
	n := x.completions.DequeueBurst(x.scratch)
	if n == 0 {
		return 0, nil
	}
	cycles := 0.0
	x.pending = append(x.pending[:0], x.scratch[:n]...)
	for _, cb := range x.pending {
		cycles += perf.RuntimeRxCyclesPerBatch
		cycles += float64(len(cb.meta)) * perf.RuntimeRxCyclesPerPkt
	}
	return cycles, x.commitFn
}

// commit distributes the completions claimed by the last iteration.
// x.pending is not touched again until commit has run, so reusing the
// slice across polls is safe.
//
//dhl:hotpath
func (x *rxEngine) commit() {
	for i, cb := range x.pending {
		x.pending[i] = nil
		x.distribute(cb)
	}
	x.pending = x.pending[:0]
}

// --- Batch watchdog ----------------------------------------------------

// watchAdd registers a committed inflight with the deadline watchdog.
// Cold relative to the fault-free path: only armed runtimes call it.
func (x *rxEngine) watchAdd(ib *inflight) {
	ib.deadline = x.r.sim.Now() + x.timeout
	ib.overdue = false
	ib.watchIdx = len(x.watch)
	x.watch = append(x.watch, ib)
	if !x.wdTimer.Armed() {
		x.wdTimer.Reset(x.wdPeriod)
	}
}

// watchRemove takes an inflight off the watch list (swap-remove by its
// stored index). releaseInflight calls it on every exit path, so an
// entry leaves the list exactly when its buffers are reclaimed.
func (x *rxEngine) watchRemove(ib *inflight) {
	i := ib.watchIdx
	ib.watchIdx = -1
	if i < 0 || i >= len(x.watch) || x.watch[i] != ib {
		return
	}
	last := len(x.watch) - 1
	x.watch[i] = x.watch[last]
	x.watch[i].watchIdx = i
	x.watch[last] = nil
	x.watch = x.watch[:last]
}

// watchdogFire sweeps the watch list for overdue batches. A soft-deadline
// miss is counted once per batch and attributed as a health fault; a
// batch still outstanding at deadline + 3x timeout forces recovery
// (quarantine + PR reload, or a region reset if quarantine is already in
// progress), which flushes completions a hung module withheld. The sweep
// works over a snapshot because fault attribution can release inflights
// mid-scan — each entry is revalidated by identity before use. The
// watchdog never releases an inflight itself: the completion path owns
// the buffers, late completions included.
func (x *rxEngine) watchdogFire() {
	now := x.r.sim.Now()
	x.wdScratch = append(x.wdScratch[:0], x.watch...)
	for i, ib := range x.wdScratch {
		x.wdScratch[i] = nil
		if ib.watchIdx < 0 || ib.watchIdx >= len(x.watch) || x.watch[ib.watchIdx] != ib {
			continue // released (and possibly recycled) during this sweep
		}
		if now < ib.deadline {
			continue
		}
		if !ib.overdue {
			ib.overdue = true
			x.stats.WatchdogTimeouts++
			ib.noteFault()
		}
		if now >= ib.deadline+3*x.timeout {
			x.stats.ForcedQuarantines++
			if ib.hf != nil && ib.hfEpoch == ib.hf.epoch {
				x.r.forceRecover(ib.hf)
			}
			// Re-escalate only if the batch is still stuck a full hard
			// window later.
			ib.deadline = now
		}
	}
	if len(x.watch) > 0 {
		x.wdTimer.Reset(x.wdPeriod)
	}
}

// distribute is the Distributor (§IV-A3): it decapsulates the returned
// batch and routes each record to the owning NF's private OBQ by nf_id,
// then releases the inflight — returning both arena segments — once the
// decode is done. Fallback and unprocessed batches flow through the same
// decode; their packets are stamped with the matching mbuf.Status so NFs
// can tell degraded results from accelerator output. Consecutive records
// of one NF are a run, cb.meta[run:i], which reaches the OBQ as one burst
// (rte_ring_enqueue_burst); a record that is not delivered ends the run
// before it.
//
//dhl:hotpath
func (x *rxEngine) distribute(cb *inflight) {
	pool := cb.t.pool
	var status mbuf.Status
	switch cb.mode {
	case modeFallback:
		status = mbuf.StatusFallback
	case modeUnprocessed:
		status = mbuf.StatusUnprocessed
	}
	var cur dhlproto.Cursor
	cur.SetBatch(cb.out)
	var rec dhlproto.Record
	i, run := 0, 0
	corrupt := false
	for {
		ok, err := cur.Next(&rec)
		if err != nil {
			corrupt = true
			break
		}
		if !ok {
			break
		}
		if i >= len(cb.meta) {
			// More records than originals: framing cannot be trusted.
			x.stats.NFIDMismatches++
			corrupt = true
			break
		}
		m := cb.meta[i]
		if rec.NFID != m.NFID {
			// Isolation violation: never deliver another NF's data.
			x.deliver(cb.meta[run:i], status, pool)
			x.stats.NFIDMismatches++
			x.stats.DropMismatch++
			_ = pool.Free(m)
			i++
			run = i
			continue
		}
		// Overwrite the original mbuf with the post-processed payload.
		if err := m.SetLen(len(rec.Payload)); err != nil {
			x.deliver(cb.meta[run:i], status, pool)
			x.stats.DropCorrupt++
			_ = pool.Free(m)
			i++
			run = i
			continue
		}
		if m.NFID != cb.meta[run].NFID {
			x.deliver(cb.meta[run:i], status, pool)
			run = i
		}
		copy(m.Data(), rec.Payload)
		m.Status = status
		i++
	}
	x.deliver(cb.meta[run:i], status, pool)
	if corrupt {
		// Remaining originals cannot be matched; free them.
		x.stats.CorruptBatches++
		x.stats.DropCorrupt += uint64(len(cb.meta) - i)
		for ; i < len(cb.meta); i++ {
			_ = pool.Free(cb.meta[i])
		}
		if cb.mode == modeFPGA {
			cb.noteFault()
		}
	} else if cb.mode == modeFPGA && cb.hf != nil && cb.hfEpoch == cb.hf.epoch {
		x.r.noteSuccess(cb.hf)
	}
	if x.tel != nil {
		out := telemetry.OutcomeOK
		switch {
		case corrupt:
			out = telemetry.OutcomeCorrupt
		case cb.mode == modeFallback:
			out = telemetry.OutcomeFallback
		case cb.mode == modeUnprocessed:
			out = telemetry.OutcomeUnprocessed
		}
		cb.telFinalize(x.telC, out)
	}
	cb.t.releaseInflight(cb)
}

// deliver hands run, decoded packets of one NF stamped with status, to
// that NF's OBQ in one burst. What the OBQ has no room for, and a run for
// an unknown or closed NF, is dropped and counted.
//
//dhl:hotpath
func (x *rxEngine) deliver(run []*mbuf.Mbuf, status mbuf.Status, pool *mbuf.Pool) {
	if len(run) == 0 {
		return
	}
	n := uint64(len(run))
	x.stats.PktsDistributed += n
	switch status {
	case mbuf.StatusFallback:
		x.stats.PktsFallback += n
	case mbuf.StatusUnprocessed:
		x.stats.PktsUnprocessed += n
	}
	id := NFID(run[0].NFID)
	if id == 0 || int(id) > len(x.r.nfs) {
		x.stats.DropUnknownNF += n
		_ = pool.FreeBulk(run)
		return
	}
	nf := x.r.nfs[id-1]
	if nf.closed {
		x.stats.DropNFClosed += n
		_ = pool.FreeBulk(run)
		return
	}
	k := nf.obq.EnqueueBurst(run)
	if tail := run[k:]; len(tail) != 0 {
		x.stats.DropOBQFull += uint64(len(tail))
		_ = pool.FreeBulk(tail)
	}
}
