package core

import (
	"errors"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// batchArena is a per-node freelist of fixed-size batch-buffer segments,
// the transfer layer's analogue of the mbuf pool: the Packer leases a
// segment to encode a request batch into, the Dispatcher leases one for
// the module's response, and the Distributor returns both once the batch
// has been decoded (or the failure path returns them early). Segments are
// sized at 2x Config.BatchBytes so modules that grow records (e.g.
// ipsec-crypto's +20 B IV/ICV per record) still fit without reallocating.
//
// The arena is single-threaded like the rest of the transfer layer: every
// lease and return happens on the simulation's event loop.
type batchArena struct {
	segSize int
	free    [][]byte

	// Lifetime counters; grown-len(free) is the number of segments
	// currently leased out, which the lifecycle tests pin to zero after
	// every failure injection.
	grown   uint64
	leases  uint64
	returns uint64
	// doubleRet counts returns of a segment already on the freelist and
	// foreign counts returns of buffers the arena never issued (e.g. a
	// module outgrew its leased segment and append reallocated). Both are
	// bugs-or-overflows the tests assert stay zero on the steady path.
	doubleRet uint64
	foreign   uint64
}

func newBatchArena(batchBytes int) *batchArena {
	return &batchArena{segSize: 2 * batchBytes}
}

// lease pops a zero-length segment off the freelist, growing the arena
// through the cold helper when empty.
//
//dhl:hotpath
func (a *batchArena) lease() []byte {
	if n := len(a.free); n > 0 {
		seg := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.leases++
		return seg[:0]
	}
	return a.grow()
}

// grow is the cold freelist-miss path. Kept out of line so its heap
// allocation cannot be inlined back into lease's //dhl:hotpath body
// (escapecheck verifies the hot path against the compiler's escape
// analysis, which attributes inlined escapes to the call site).
//
//go:noinline
func (a *batchArena) grow() []byte {
	a.grown++
	a.leases++
	return make([]byte, 0, a.segSize)
}

// ret returns a leased segment to the freelist. Buffers the arena never
// issued (wrong capacity — a realloc escaped the segment) are dropped to
// the garbage collector and counted; so is a double return, detected by
// backing-array identity against the freelist.
//
//dhl:hotpath
func (a *batchArena) ret(b []byte) {
	if cap(b) != a.segSize {
		if b != nil {
			a.foreign++
		}
		return
	}
	p := &b[:1][0]
	for _, f := range a.free {
		if &f[:1][0] == p {
			a.doubleRet++
			return
		}
	}
	a.returns++
	a.free = append(a.free, b[:0])
}

// outstanding reports how many segments are currently leased out.
func (a *batchArena) outstanding() int { return int(a.grown) - len(a.free) }

// inflight carries one batch through the asynchronous DMA -> Dispatcher ->
// DMA chain. It replaces both the per-batch closure chain the TX engine
// used to build in flush and the completedBatch object the RX engine used
// to dequeue: the callbacks are method values bound once at construction,
// and the object recycles through the owning txEngine's freelist after the
// Distributor (or a failure path) releases it.
//
// Buffer lifecycle: buf is the arena segment the Packer encoded the
// request into (leased in txEngine.body, moved here by flush); outSeg is
// the arena segment leased for the module's response when the H2C
// transfer completes. Both return to the arena in releaseInflight — on
// success after the Distributor decodes out, on failure from fail(),
// which also frees the staged originals back to the mbuf pool.
// Processing modes: the sunny-day FPGA chain, the software fallback run
// on the TX core when the accelerator is quarantined, and unprocessed
// pass-through when it is quarantined with no fallback registered.
const (
	modeFPGA uint8 = iota
	modeFallback
	modeUnprocessed
)

type inflight struct {
	t         *txEngine
	hf        *hfEntry // routing entry, for health attribution
	hfEpoch   uint32   // hf.epoch at flush; stale after a cutover
	dma       *pcie.Engine
	dev       *fpga.Device
	regionIdx int
	buf       []byte       // encoded request batch (arena segment)
	meta      []*mbuf.Mbuf // originals, zipped positionally by the Distributor
	out       []byte       // encoded response batch (usually aliases outSeg)
	outSeg    []byte       // arena segment leased for the response

	mode     uint8
	retries  int           // DMA retry budget consumed
	deadline eventsim.Time // watchdog soft deadline (valid while watched)
	watchIdx int           // index in the rx watch list, -1 when unwatched
	overdue  bool          // soft deadline already counted by the watchdog

	// span is the batch's trace record, assembled in place as the stage
	// clock crosses each boundary (flush, H2C done, dispatch done, C2H
	// done, distribute) and pushed to the telemetry ring by telFinalize.
	// Untouched when telemetry is off.
	span telemetry.Span

	h2cDoneFn      func()
	dispatchDoneFn func(out []byte, err error)
	c2hDoneFn      func()
	sendFn         func() // bound for H2C retry backoff
	postC2HFn      func() // bound for C2H retry backoff
}

//dhl:hotpath
func (t *txEngine) getInflight() *inflight {
	if n := len(t.ibFree); n > 0 {
		ib := t.ibFree[n-1]
		t.ibFree[n-1] = nil
		t.ibFree = t.ibFree[:n-1]
		return ib
	}
	return t.newInflight()
}

// newInflight is the cold freelist-miss constructor; //go:noinline keeps
// its allocation (and the five bound-method closures) out of
// getInflight's //dhl:hotpath body under escape analysis.
//
//go:noinline
func (t *txEngine) newInflight() *inflight {
	ib := &inflight{t: t, watchIdx: -1}
	ib.h2cDoneFn = ib.h2cDone
	ib.dispatchDoneFn = ib.dispatchDone
	ib.c2hDoneFn = ib.c2hDone
	ib.sendFn = ib.send
	ib.postC2HFn = ib.postC2H
	return ib
}

// releaseInflight returns both arena segments and recycles the object.
// The Distributor calls it after decoding; fail calls it after freeing
// the originals.
//
//dhl:hotpath
func (t *txEngine) releaseInflight(ib *inflight) {
	if ib.watchIdx >= 0 {
		t.r.nodeRx[t.node].watchRemove(ib)
	}
	// Unprocessed pass-through aliases out to buf; never return the same
	// segment twice.
	if ib.mode == modeUnprocessed {
		ib.outSeg = nil
	}
	t.arena.ret(ib.buf)
	t.arena.ret(ib.outSeg)
	ib.buf, ib.out, ib.outSeg = nil, nil, nil
	for i := range ib.meta {
		ib.meta[i] = nil
	}
	ib.meta = ib.meta[:0]
	ib.hf, ib.dma, ib.dev, ib.regionIdx = nil, nil, nil, 0
	ib.mode, ib.retries, ib.deadline, ib.overdue = modeFPGA, 0, 0, false
	if t.tel != nil {
		ib.span.Reset()
	}
	t.ibFree = append(t.ibFree, ib)
}

// noteFault attributes this batch's failure to its accelerator's health
// FSM — unless the accelerator has been cut over to a new placement since
// the batch was flushed (migration, replica promotion), in which case the
// straggler says nothing about the fresh instance and is dropped from
// health accounting. The drop/ledger counters are unaffected.
//
//dhl:hotpath
func (ib *inflight) noteFault() {
	if ib.hf != nil && ib.hfEpoch == ib.hf.epoch {
		ib.t.r.noteFault(ib.hf)
	}
}

// The DMA retry budget: a transfer failed with pcie.ErrTransferFault is
// re-posted at most maxDMARetries times, the first after retryBackoff and
// each further one after twice the last delay. Two retries wait 2 + 4 us
// in all — a few 6 KB transfer times, and far inside the 250 us default
// watchdog deadline, so a batch that retries its way through is never
// also counted overdue.
const (
	maxDMARetries = 2
	retryBackoff  = 2 * eventsim.Microsecond
)

// retryDMA handles a failed DMA post: injected transfer faults are
// transient by definition, so they are re-posted with exponential backoff
// through the bound thunk until the retry budget runs out. Any other
// error (and an exhausted budget) falls through to the caller's fail
// edge. Reports whether a retry was scheduled.
//
//dhl:hotpath
func (ib *inflight) retryDMA(err error, again func()) bool {
	t := ib.t
	if !errors.Is(err, pcie.ErrTransferFault) {
		return false
	}
	if ib.retries >= maxDMARetries {
		t.stats.DMARetryGiveUps++
		return false
	}
	ib.retries++
	t.stats.DMARetries++
	if t.tel != nil {
		t.telC.Inc(telemetry.CounterDMARetries)
	}
	t.r.sim.After(retryBackoff<<(ib.retries-1), again)
	return true
}

// send posts the H2C transfer; txEngine.commit calls it once the packing
// iteration's cycle cost has been paid. Batches rerouted by graceful
// degradation never touch the DMA engine: the fallback runs on the TX
// core, and unprocessed batches loop straight back to the Distributor.
//
//dhl:hotpath
func (ib *inflight) send() {
	switch ib.mode {
	case modeFallback:
		ib.runFallback()
		return
	case modeUnprocessed:
		// The request batch is valid dhlproto framing carrying the
		// original payloads; the Distributor returns them untouched with
		// StatusUnprocessed.
		ib.out = ib.buf
		ib.c2hDone()
		return
	}
	_, fo, err := ib.dma.Transfer(pcie.H2C, len(ib.buf), ib.h2cDoneFn)
	if err != nil {
		if ib.retryDMA(err, ib.sendFn) {
			return
		}
		ib.t.stats.DispatchErrors++
		ib.noteFault()
		ib.fail()
		return
	}
	if fo&faultinject.Corrupted != 0 {
		// The DMA model moves sizes, not bytes: apply the injected damage
		// to the request batch so the module (or the Distributor, for
		// modules that echo framing) detects it downstream.
		faultinject.CorruptBatchHeader(ib.buf)
	}
}

// runFallback processes the batch with the accelerator's registered
// software module right here on the TX core and forwards the result
// through the normal completion path, so the Distributor and the OBQ
// keep a single producer.
//
//dhl:hotpath
func (ib *inflight) runFallback() {
	t := ib.t
	ib.outSeg = t.arena.lease()
	out, err := ib.hf.fallback.ProcessBatch(ib.outSeg, ib.buf)
	if err != nil {
		t.stats.DispatchErrors++
		ib.fail()
		return
	}
	ib.out = out
	ib.c2hDone()
}

// h2cDone runs when the request batch has landed on the board: lease the
// response segment and hand the batch to the Dispatcher.
//
//dhl:hotpath
func (ib *inflight) h2cDone() {
	if ib.t.tel != nil {
		ib.span.StageEnd[telemetry.StageH2C] = ib.t.r.sim.Now()
	}
	ib.outSeg = ib.t.arena.lease()
	if _, err := ib.dev.Dispatch(ib.regionIdx, ib.buf, ib.outSeg, ib.dispatchDoneFn); err != nil {
		ib.t.stats.DispatchErrors++
		ib.noteFault()
		ib.fail()
	}
}

// dispatchDone runs at module completion time with the encoded response.
//
//dhl:hotpath
func (ib *inflight) dispatchDone(out []byte, err error) {
	if ib.t.tel != nil {
		ib.span.StageEnd[telemetry.StageAccel] = ib.t.r.sim.Now()
	}
	if err != nil {
		ib.t.stats.DispatchErrors++
		ib.noteFault()
		ib.fail()
		return
	}
	ib.out = out
	ib.postC2H()
}

// postC2H posts the response transfer back to host memory.
//
//dhl:hotpath
func (ib *inflight) postC2H() {
	_, fo, cerr := ib.dma.Transfer(pcie.C2H, len(ib.out), ib.c2hDoneFn)
	if cerr != nil {
		if ib.retryDMA(cerr, ib.postC2HFn) {
			return
		}
		ib.t.stats.DispatchErrors++
		ib.noteFault()
		ib.fail()
		return
	}
	if fo&faultinject.Corrupted != 0 {
		faultinject.CorruptBatchHeader(ib.out)
	}
}

// c2hDone runs when the response has landed back in host memory: hand the
// batch to the RX engine's completion ring.
//
//dhl:hotpath
func (ib *inflight) c2hDone() {
	t := ib.t
	if t.tel != nil && ib.mode == modeFPGA {
		ib.span.StageEnd[telemetry.StageC2H] = t.r.sim.Now()
	}
	if f := t.r.cfg.Faults; f != nil && f.Fire(faultinject.CompletionStall) {
		t.stats.CompletionStalls++
		t.r.sim.After(f.StallFor(faultinject.CompletionStall), ib.c2hDoneFn)
		return
	}
	if !t.r.nodeRx[t.node].completions.Enqueue(ib) {
		// The ring is full: count the completion dropped and reclaim the
		// buffers now.
		t.stats.CompletionDrops++
		ib.fail()
	}
}

// fail is the single failure edge: free the staged originals to the mbuf
// pool and return the segments to the arena. Every error branch of the
// DMA/Dispatch chain funnels here exactly once; the freed packets are
// attributed to the DropFault reason.
//
//dhl:hotpath
func (ib *inflight) fail() {
	t := ib.t
	t.stats.DropFault += uint64(len(ib.meta))
	for _, m := range ib.meta {
		_ = t.pool.Free(m)
	}
	if t.tel != nil {
		ib.telFinalize(t.telC, telemetry.OutcomeFailed)
	}
	t.releaseInflight(ib)
}

// telFinalize closes the batch's trace span: it stamps the distribute
// boundary (except on the failure edge, where distribution never ran),
// records each completed stage's duration into the per-stage histograms,
// pushes the span onto the bounded ring, and bumps the finalizing core's
// counter block. Only called with telemetry armed; everything it touches
// is preallocated, so the steady-state allocation budget stays zero.
//
//dhl:hotpath
func (ib *inflight) telFinalize(cc *telemetry.CoreCounters, out telemetry.Outcome) {
	tel := ib.t.tel
	sp := &ib.span
	sp.Outcome = out
	sp.Retries = uint8(ib.retries)
	if out != telemetry.OutcomeFailed {
		sp.StageEnd[telemetry.StageDistribute] = ib.t.r.sim.Now()
	}
	// Walk the stage boundaries in order; a zero stamp means the stage
	// did not run (fallback/unprocessed batches skip the DMA and
	// accelerator legs), so its histogram is skipped and the next
	// completed stage measures from the last completed boundary.
	prev := sp.Start
	for s := telemetry.StagePack; s < telemetry.NumStages; s++ {
		end := sp.StageEnd[s]
		if end == 0 || end < prev {
			continue
		}
		tel.Stages[s].Observe(end - prev)
		prev = end
	}
	tel.Spans.Push(sp)
	cc.Inc(telemetry.CounterBatches)
	cc.Add(telemetry.CounterPackets, uint64(sp.Packets))
	cc.Add(telemetry.CounterBytes, uint64(sp.Bytes))
	switch out {
	case telemetry.OutcomeFallback:
		cc.Inc(telemetry.CounterFallbackBatches)
	case telemetry.OutcomeUnprocessed:
		cc.Inc(telemetry.CounterUnprocessedBatches)
	case telemetry.OutcomeFailed:
		cc.Inc(telemetry.CounterFailedBatches)
	case telemetry.OutcomeCorrupt:
		cc.Inc(telemetry.CounterCorruptBatches)
	}
}
