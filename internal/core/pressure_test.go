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
	var events []PressureInfo
	if err := r.rt.RegisterPressure(id, func(pi PressureInfo) {
		events = append(events, pi)
	}); err != nil {
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
	st, err := r.rt.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.IBQRejected != 9 {
		t.Fatalf("Stats.IBQRejected = %d, want 9", st.IBQRejected)
	}
	if got := r.rt.nfs[id-1].rejected; got != 9 {
		t.Fatalf("rejected = %d, want 9", got)
	}
	rejected, hot, qlen, qcap := r.rt.IBQPressure(0)
	if rejected != 9 || !hot || qlen != capacity || qcap != capacity {
		t.Fatalf("IBQPressure = (%d, %v, %d, %d), want (9, true, %d, %d)", rejected, hot, qlen, qcap, capacity, capacity)
	}
	// The refusing send crossed the high-water mark, so the signal is the
	// rising-edge broadcast (Rejected 0, Pressured true).
	if len(events) != 1 || events[0].Rejected != 0 || !events[0].Pressured {
		t.Fatalf("events after refusing send = %+v, want one rising edge", events)
	}
	// Caller keeps ownership of the refused tail.
	for _, m := range pkts[capacity:] {
		if ferr := r.pool.Free(m); ferr != nil {
			t.Fatalf("refused packet not owned by caller: %v", ferr)
		}
	}
	// A further refused send while hot signals the sender directly.
	more := []*mbuf.Mbuf{r.packet(t, id, 1, []byte("y")), r.packet(t, id, 1, []byte("z"))}
	acc, pressured, err := r.rt.TrySendPackets(id, more)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0 || !pressured {
		t.Fatalf("TrySendPackets on a full IBQ = (%d, %v), want (0, true)", acc, pressured)
	}
	last := events[len(events)-1]
	if last.Rejected != 2 || !last.Pressured || last.NF != id {
		t.Fatalf("per-refusal callback = %+v", last)
	}
	for _, m := range more {
		_ = r.pool.Free(m)
	}
	if got := r.rt.nfs[id-1].rejected; got != 11 {
		t.Fatalf("rejected after second refusal = %d, want 11", got)
	}
	if err := r.rt.RegisterPressure(42, nil); !errors.Is(err, ErrUnknownNF) {
		t.Fatalf("RegisterPressure unknown NF: %v", err)
	}
}

func TestPressureWatermarkEdges(t *testing.T) {
	// The latch rises at 3/4 of the IBQ's capacity and falls at 1/2.
	r := newRig(t, Config{})
	id, err := r.rt.Register("producer", 0)
	if err != nil {
		t.Fatal(err)
	}
	var events []PressureInfo
	if err := r.rt.RegisterPressure(id, func(pi PressureInfo) {
		events = append(events, pi)
	}); err != nil {
		t.Fatal(err)
	}
	rise := (3*r.rt.ibqs[0].Capacity() + 3) / 4
	fill := make([]*mbuf.Mbuf, rise)
	for i := range fill {
		fill[i] = r.packet(t, id, 0, []byte("p"))
	}
	if n, serr := r.rt.SendPackets(id, fill[:rise-1]); serr != nil || n != rise-1 {
		t.Fatalf("fill send: n=%d err=%v", n, serr)
	}
	if len(events) != 0 {
		t.Fatalf("edge below the high-water mark: %+v", events)
	}
	if n, serr := r.rt.SendPackets(id, fill[rise-1:]); serr != nil || n != 1 {
		t.Fatalf("fill send: n=%d err=%v", n, serr)
	}
	if len(events) != 1 || !events[0].Pressured || events[0].Rejected != 0 {
		t.Fatalf("rising edge = %+v", events)
	}
	if _, hot, _, _ := r.rt.IBQPressure(0); !hot {
		t.Fatalf("latch not set at %d occupancy", rise)
	}
	// Drain (unknown acc_id 0 -> DropNoRoute, buffers freed), then one calm
	// send must deliver the falling edge.
	r.sim.Run(r.sim.Now() + eventsim.Millisecond)
	one := []*mbuf.Mbuf{r.packet(t, id, 0, []byte("q"))}
	if _, serr := r.rt.SendPackets(id, one); serr != nil {
		t.Fatal(serr)
	}
	if len(events) != 2 || events[1].Pressured || events[1].Rejected != 0 {
		t.Fatalf("falling edge = %+v", events)
	}
	if _, hot, _, _ := r.rt.IBQPressure(0); hot {
		t.Fatal("latch still set after drain")
	}
	// Bad node queries are inert.
	if rej, hot, qlen, qcap := r.rt.IBQPressure(9); rej != 0 || hot || qlen != 0 || qcap != 0 {
		t.Fatal("out-of-range node reported state")
	}
}

func TestTrySendPacketsCalmPath(t *testing.T) {
	r := newRig(t, Config{})
	id, err := r.rt.Register("producer", 0)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*mbuf.Mbuf, 4)
	for i := range pkts {
		pkts[i] = r.packet(t, id, 0, []byte("p"))
	}
	n, pressured, err := r.rt.TrySendPackets(id, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || pressured {
		t.Fatalf("calm TrySendPackets = (%d, %v), want (4, false)", n, pressured)
	}
	if _, _, err := r.rt.TrySendPackets(42, nil); !errors.Is(err, ErrUnknownNF) {
		t.Fatalf("unknown NF: %v", err)
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
	if _, hot, qlen, _ := r.rt.IBQPressure(0); hot || qlen != 0 {
		t.Fatalf("queue did not drain after burst resize: hot=%v qlen=%d", hot, qlen)
	}
}
