package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

func TestSendPacketsAttributesRefusals(t *testing.T) {
	// Without advancing virtual time the TX core never drains, so a burst
	// 9 packets longer than the IBQ must be refused at its tail.
	r := newRig(t, Config{})
	id, err := r.rt.Register("producer", 0)
	if err != nil {
		t.Fatal(err)
	}
	capacity := r.rt.ibqs[0].Capacity()
	pkts := make([]*mbuf.Mbuf, capacity+9)
	for i := range pkts {
		pkts[i] = r.packet(t, id, 1, []byte("x"))
	}
	n, err := r.rt.SendPackets(id, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if n != capacity {
		t.Fatalf("accepted %d of %d into a cap-%d IBQ", n, len(pkts), capacity)
	}
	if st := r.stats(t); st.IBQRejected != 9 {
		t.Fatalf("Stats.IBQRejected = %d, want 9", st.IBQRejected)
	}
	if rejected, hot := r.rt.IBQPressure(0); rejected != 9 || !hot {
		t.Fatalf("IBQPressure = (%d, %v), want (9, true)", rejected, hot)
	}
	// Caller keeps ownership of the refused tail.
	for _, m := range pkts[capacity:] {
		if ferr := r.pool.Free(m); ferr != nil {
			t.Fatalf("refused packet not owned by caller: %v", ferr)
		}
	}
	// A further send into the full IBQ is refused whole and counted once.
	more := []*mbuf.Mbuf{r.packet(t, id, 1, []byte("y")), r.packet(t, id, 1, []byte("z"))}
	if acc, err := r.rt.SendPackets(id, more); err != nil || acc != 0 {
		t.Fatalf("SendPackets on a full IBQ = (%d, %v), want (0, nil)", acc, err)
	}
	for _, m := range more {
		_ = r.pool.Free(m)
	}
	if st := r.stats(t); st.IBQRejected != 11 {
		t.Fatalf("Stats.IBQRejected after second refusal = %d, want 11", st.IBQRejected)
	}
	if _, err := r.rt.SendPackets(42, nil); !errors.Is(err, ErrUnknownNF) {
		t.Fatalf("SendPackets unknown NF: %v", err)
	}
}

// TestPressureWatermarkEdges pins the node latch the tuner reads through
// IBQPressure and a scrape through dhl_ibq_pressure: it rises at 3/4
// occupancy or on a refusal, holds between the marks, and falls at 1/2
// only on a send that had nothing refused.
func TestPressureWatermarkEdges(t *testing.T) {
	tel := telemetry.New(64)
	r := newRig(t, Config{Telemetry: tel})
	id, err := r.rt.Register("producer", 0)
	if err != nil {
		t.Fatal(err)
	}
	ibq := r.rt.ibqs[0]
	capacity := ibq.Capacity()
	latch := func(want bool, when string) {
		t.Helper()
		_, hot := r.rt.IBQPressure(0)
		gauge := -1.0
		for _, g := range tel.Snapshot().Gauges {
			if g.Name == "dhl_ibq_pressure" && g.Labels == `node="0"` {
				gauge = g.Value
			}
		}
		wantGauge := 0.0
		if want {
			wantGauge = 1
		}
		if hot != want || gauge != wantGauge {
			t.Fatalf("%s at %d of %d: IBQPressure hot=%v, dhl_ibq_pressure=%v; want %v",
				when, ibq.Len(), capacity, hot, gauge, want)
		}
	}
	// send offers n packets and frees the refused tail; take plays the TX
	// core, which never runs while virtual time stands still.
	send := func(n int) int {
		t.Helper()
		pkts := make([]*mbuf.Mbuf, n)
		for i := range pkts {
			pkts[i] = r.packet(t, id, 0, []byte("p"))
		}
		acc, err := r.rt.SendPackets(id, pkts)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pkts[acc:] {
			_ = r.pool.Free(m)
		}
		return acc
	}
	take := func(n int) {
		t.Helper()
		out := make([]*mbuf.Mbuf, n)
		if got := ibq.DequeueBurst(out); got != n {
			t.Fatalf("IBQ gave %d of %d", got, n)
		}
		if err := r.pool.FreeBulk(out); err != nil {
			t.Fatal(err)
		}
	}

	rise := (3*capacity + 3) / 4
	send(rise - 1)
	latch(false, "below 3/4")
	send(1)
	latch(true, "at 3/4")
	take(ibq.Len() - capacity/2 - 1)
	send(0)
	latch(true, "a send above 1/2")
	take(2)
	latch(true, "drained below 1/2 with no send")
	send(1)
	latch(false, "a send at 1/2")

	before, _ := r.rt.IBQPressure(0)
	accepted := send(capacity)
	rejected, _ := r.rt.IBQPressure(0)
	if want := uint64(capacity - accepted); rejected-before != want || want == 0 {
		t.Fatalf("refusals counted %d, want %d (> 0)", rejected-before, want)
	}
	latch(true, "a refusal")
	take(ibq.Len())

	// Out-of-range nodes report nothing.
	if rej, hot := r.rt.IBQPressure(9); rej != 0 || hot {
		t.Fatal("out-of-range node reported state")
	}
	if rej, hot := r.rt.IBQPressure(-1); rej != 0 || hot {
		t.Fatal("negative node reported state")
	}
}

func TestPerAccTuningOverrides(t *testing.T) {
	r := newRig(t, Config{}, moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.rt.SetAccBatchBytes(acc, 64); !errors.Is(err, ErrBadBatchConfig) {
		t.Errorf("below-min batch accepted: %v", err)
	}
	if err := r.rt.SetAccBatchBytes(acc, 1<<20); !errors.Is(err, ErrBatchTooBig) {
		t.Errorf("over-arena batch accepted: %v", err)
	}
	if err := r.rt.SetAccBatchBytes(999, 1024); !errors.Is(err, ErrUnknownAcc) {
		t.Errorf("unknown acc batch accepted: %v", err)
	}
	if err := r.rt.SetAccFlushTimeout(999, eventsim.Microsecond); !errors.Is(err, ErrUnknownAcc) {
		t.Errorf("unknown acc flush accepted: %v", err)
	}
	if err := r.rt.SetAccFlushTimeout(acc, -1); !errors.Is(err, ErrBadBatchConfig) {
		t.Errorf("negative flush accepted: %v", err)
	}
	if _, err := r.rt.AccTuningFor(999); !errors.Is(err, ErrUnknownAcc) {
		t.Errorf("unknown acc tuning readable: %v", err)
	}

	if err := r.rt.SetAccBatchBytes(acc, 1024); err != nil {
		t.Fatal(err)
	}
	if err := r.rt.SetAccFlushTimeout(acc, 5*eventsim.Microsecond); err != nil {
		t.Fatal(err)
	}
	tune, err := r.rt.AccTuningFor(acc)
	if err != nil {
		t.Fatal(err)
	}
	if tune.BatchBytes != 1024 || tune.FlushTimeout != 5*eventsim.Microsecond {
		t.Fatalf("round-trip tuning = %+v", tune)
	}
	// Zeroing both fields clears the override entirely.
	if err := r.rt.SetAccBatchBytes(acc, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.rt.SetAccFlushTimeout(acc, 0); err != nil {
		t.Fatal(err)
	}
	if tune, _ := r.rt.AccTuningFor(acc); tune != (AccTuning{}) {
		t.Fatalf("cleared override still reads %+v", tune)
	}

	// acc_id 0 names the defaults: same setters, same bounds, and no
	// clearing — there is nothing underneath a default to inherit.
	for _, bytes := range []int{0, 64} {
		if err := r.rt.SetAccBatchBytes(0, bytes); !errors.Is(err, ErrBadBatchConfig) {
			t.Errorf("default batch of %d accepted: %v", bytes, err)
		}
	}
	if err := r.rt.SetAccBatchBytes(0, 1<<20); !errors.Is(err, ErrBatchTooBig) {
		t.Errorf("over-arena default batch accepted: %v", err)
	}
	for _, d := range []eventsim.Time{0, -1} {
		if err := r.rt.SetAccFlushTimeout(0, d); !errors.Is(err, ErrBadBatchConfig) {
			t.Errorf("default flush timeout of %d accepted: %v", d, err)
		}
	}
	if err := r.rt.SetAccBatchBytes(0, 2048); err != nil {
		t.Fatal(err)
	}
	if err := r.rt.SetAccFlushTimeout(0, 7*eventsim.Microsecond); err != nil {
		t.Fatal(err)
	}
	want := AccTuning{BatchBytes: 2048, FlushTimeout: 7 * eventsim.Microsecond}
	if def, err := r.rt.AccTuningFor(0); err != nil || def != want {
		t.Errorf("defaults read %+v (%v), want %+v", def, err, want)
	}
	if r.rt.BatchBytes() != want.BatchBytes || r.rt.FlushTimeout() != want.FlushTimeout {
		t.Errorf("BatchBytes/FlushTimeout = %d/%d, want %+v", r.rt.BatchBytes(), r.rt.FlushTimeout(), want)
	}
}

// TestAccBatchTargetSurvivesDefaultMove pins DESIGN.md §14's "per-acc
// overrides layer on top": moving the default (the operator's tune.batch)
// under an accelerator with a target of its own leaves that accelerator
// where it is, reaches every accelerator without one, and is what a
// cleared target returns to.
func TestAccBatchTargetSurvivesDefaultMove(t *testing.T) {
	for _, tc := range []struct{ own, newDefault int }{
		{1024, 2048},
		{4096, 1024},
	} {
		t.Run(fmt.Sprintf("fixed/own%d/default%d", tc.own, tc.newDefault), func(t *testing.T) {
			r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
				moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
			nf, _ := r.rt.Register("nf", 0)
			tuned, _ := r.rt.LoadPR("rev", 0)
			plain, _ := r.rt.LoadPR("rev", 0)
			r.settle()
			// One packet each brings both staging areas into being.
			sendBurst(t, r, nf, tuned, 1)
			sendBurst(t, r, nf, plain, 1)
			if got := drainOBQ(t, r, nf, nil); got != 2 {
				t.Fatalf("received %d, want 2", got)
			}
			tx := r.rt.nodeTx[0]
			if err := r.rt.SetAccBatchBytes(tuned, tc.own); err != nil {
				t.Fatal(err)
			}
			if got := tx.state(tuned).batchCap; got != tc.own {
				t.Fatalf("own target %d gave batchCap %d", tc.own, got)
			}
			if err := r.rt.SetBatchBytes(tc.newDefault); err != nil {
				t.Fatal(err)
			}
			if got := tx.state(tuned).batchCap; got != tc.own {
				t.Errorf("moving the default to %d moved the tuned accelerator %d -> %d", tc.newDefault, tc.own, got)
			}
			if tune, _ := r.rt.AccTuningFor(tuned); tune.BatchBytes != tc.own {
				t.Errorf("own target reads %d, want %d", tune.BatchBytes, tc.own)
			}
			if got := tx.state(plain).batchCap; got != tc.newDefault {
				t.Errorf("accelerator without a target sits at %d under a default of %d", got, tc.newDefault)
			}
			// Clearing returns to the default as it is now, not as it was.
			if err := r.rt.SetAccBatchBytes(tuned, 0); err != nil {
				t.Fatal(err)
			}
			if got := tx.state(tuned).batchCap; got != tc.newDefault {
				t.Errorf("cleared target left batchCap %d, want the default %d", got, tc.newDefault)
			}
		})
	}
}

func TestAccBatchOverrideShapesLiveBatches(t *testing.T) {
	tel := telemetry.New(64)
	r := newRig(t, Config{Telemetry: tel},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()
	if err := r.rt.SetAccBatchBytes(acc, 1024); err != nil {
		t.Fatal(err)
	}
	id, err := r.rt.Register("producer", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		m := r.packet(t, id, acc, make([]byte, 256))
		if _, err := r.rt.SendPackets(id, []*mbuf.Mbuf{m}); err != nil {
			t.Fatal(err)
		}
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)
	spans := make([]telemetry.Span, 64)
	n, _ := tel.Spans.CopySince(0, spans)
	var batches int
	for _, sp := range spans[:n] {
		if sp.AccID != uint16(acc) {
			continue
		}
		batches++
		if int(sp.Bytes) > 1024 {
			t.Fatalf("batch of %d bytes ignored the 1024-byte override", sp.Bytes)
		}
	}
	// 8 records of ~256 B each cannot fit one 1024-byte batch; the override
	// must split them.
	if batches < 2 {
		t.Fatalf("%d batches for 2 KB of payload under a 1 KB override, want >= 2", batches)
	}
}

func TestSetBurstBoundsAndResize(t *testing.T) {
	r := newRig(t, Config{})
	if got := r.rt.Burst(0); got != 64 {
		t.Fatalf("default burst = %d, want 64", got)
	}
	if got := r.rt.Burst(-1); got != 64 {
		t.Fatalf("out-of-range node burst = %d, want config default", got)
	}
	if err := r.rt.SetBurst(0, 0); !errors.Is(err, ErrBadBatchConfig) {
		t.Errorf("burst 0 accepted: %v", err)
	}
	if err := r.rt.SetBurst(0, 2048); !errors.Is(err, ErrBadBatchConfig) {
		t.Errorf("burst 2048 accepted: %v", err)
	}
	if err := r.rt.SetBurst(5, 16); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := r.rt.SetBurst(0, 128); err != nil {
		t.Fatal(err)
	}
	if got := r.rt.Burst(0); got != 128 {
		t.Fatalf("burst after resize = %d, want 128", got)
	}
	// The data path keeps moving with the resized scratch.
	id, err := r.rt.Register("producer", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := r.packet(t, id, 0, []byte("p"))
	if _, err := r.rt.SendPackets(id, []*mbuf.Mbuf{m}); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)
	if _, hot := r.rt.IBQPressure(0); hot || r.rt.ibqs[0].Len() != 0 {
		t.Fatalf("queue did not drain after burst resize: hot=%v qlen=%d", hot, r.rt.ibqs[0].Len())
	}
}
