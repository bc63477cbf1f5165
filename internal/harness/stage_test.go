package harness

import (
	"fmt"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// stageSource is a test source: n mbufs tagged 0..n-1 in Userdata, handed
// out in bursts of at most burstSize.
type stageSource struct {
	pkts  []*mbuf.Mbuf
	n     int
	pulls int
}

func newStageSource(t *testing.T, tb *testbed, n int) *stageSource {
	t.Helper()
	src := &stageSource{n: n}
	for i := 0; i < n; i++ {
		m, err := tb.pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		m.Userdata = uint64(i)
		src.pkts = append(src.pkts, m)
	}
	return src
}

// Produced counts every packet the source holds: all of them were put in
// before the stage's loop started (eventsim.Input).
func (s *stageSource) Produced() uint64 { return uint64(s.n) }

// src is the source a stage under test pulls from.
func (s *stageSource) src() source { return source{in: s, pull: s.pull} }

func (s *stageSource) pull(buf []*mbuf.Mbuf) int {
	s.pulls++
	n := copy(buf[:burstSize], s.pkts)
	s.pkts = s.pkts[n:]
	return n
}

// stageSink takes at most room packets in total and remembers their tags.
type stageSink struct {
	room int
	tags []uint64
	pool *mbuf.Pool
}

func (k *stageSink) push(pkts []*mbuf.Mbuf) int {
	n := len(pkts)
	if n > k.room {
		n = k.room
	}
	k.room -= n
	for _, m := range pkts[:n] {
		k.tags = append(k.tags, m.Userdata)
		_ = k.pool.Free(m) // taken: the sink owns it now
	}
	return n
}

// TestStageConservation: whatever a stage pulls it either forwards or
// frees and counts, whether the NF's verdict or the sink refused it.
func TestStageConservation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		dropEvery uint64 // proc drops tags divisible by this; 0: no proc
		room      int    // what the sink takes in total
		forwarded int
	}{
		{name: "no proc, sink takes all", n: 20, room: 20, forwarded: 20},
		{name: "no proc, sink takes k<n", n: 20, room: 7, forwarded: 7},
		{name: "no proc, sink takes none", n: 20, room: 0, forwarded: 0},
		{name: "proc drops every third", n: 30, dropEvery: 3, room: 30, forwarded: 20},
		{name: "proc drops and sink refuses", n: 30, dropEvery: 3, room: 5, forwarded: 5},
		{name: "proc drops everything", n: 12, dropEvery: 1, room: 12, forwarded: 0},
		{name: "three bursts", n: 2*burstSize + 5, dropEvery: 2, room: 40, forwarded: burstSize + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := newTestbed(128)
			if err != nil {
				t.Fatal(err)
			}
			src := newStageSource(t, tb, tc.n)
			sink := &stageSink{room: tc.room, pool: tb.pool}
			var dropped uint64
			st := &stage{src: src.src(), perPkt: 10, push: sink.push, dropped: &dropped}
			if tc.dropEvery != 0 {
				st.proc = func(m *mbuf.Mbuf) (nf.Verdict, float64) {
					if m.Userdata%tc.dropEvery == 0 {
						return nf.VerdictDrop, 7
					}
					return nf.VerdictForward, 7
				}
			}
			c := tb.core()
			tb.run(c, st)
			tb.sim.Run(eventsim.Millisecond)

			if len(sink.tags) != tc.forwarded {
				t.Errorf("forwarded %d, want %d", len(sink.tags), tc.forwarded)
			}
			if got := uint64(tc.n - len(sink.tags)); dropped != got {
				t.Errorf("dropped %d, but pulled %d - forwarded %d = %d", dropped, tc.n, len(sink.tags), got)
			}
			if tb.pool.InUse() != 0 {
				t.Errorf("%d mbufs not back in the pool", tb.pool.InUse())
			}
			for i := 1; i < len(sink.tags); i++ {
				if sink.tags[i] <= sink.tags[i-1] {
					t.Fatalf("sink saw tag %d after %d: pull order lost", sink.tags[i], sink.tags[i-1])
				}
			}
		})
	}
}

// TestStageCycleFormula pins the price of an iteration: n*perPkt, then
// each packet's own cost, dropped packets included.
func TestStageCycleFormula(t *testing.T) {
	tb, err := newTestbed(64)
	if err != nil {
		t.Fatal(err)
	}
	src := newStageSource(t, tb, 5)
	sink := &stageSink{room: 5, pool: tb.pool}
	st := &stage{src: src.src(), perPkt: 46, push: sink.push, pool: tb.pool,
		proc: func(m *mbuf.Mbuf) (nf.Verdict, float64) {
			if m.Userdata == 2 {
				return nf.VerdictDrop, 0.25
			}
			return nf.VerdictForward, float64(m.Userdata) + 0.5
		}}
	n, cycles := st.poll()
	if want := 5*46.0 + 0.5 + 1.5 + 0.25 + 3.5 + 4.5; n != 5 || cycles != want {
		t.Errorf("poll = %d packets, %v cycles; want 5, %v", n, cycles, want)
	}
	st.commit()
	if len(sink.tags) != 4 || tb.pool.InUse() != 0 {
		t.Errorf("forwarded %d of 5 with %d mbufs out", len(sink.tags), tb.pool.InUse())
	}
}

// TestStageLoopIdleAndCommitOrder: a core serving two stages is idle only
// when neither source has anything, and commits them in the order given.
func TestStageLoopIdleAndCommitOrder(t *testing.T) {
	for _, tc := range []struct {
		name            string
		ingress, egress int
		want            string
	}{
		{name: "both empty", want: ""},
		{name: "ingress only", ingress: 3, want: "ingress:3 "},
		{name: "egress only", egress: 4, want: "egress:4 "},
		{name: "both", ingress: 3, egress: 4, want: "ingress:3 egress:4 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := newTestbed(64)
			if err != nil {
				t.Fatal(err)
			}
			var log string
			var committedAt eventsim.Time
			mk := func(name string, n int) *stage {
				sink := &stageSink{room: n, pool: tb.pool}
				return &stage{src: newStageSource(t, tb, n).src(), perPkt: 100, push: func(pkts []*mbuf.Mbuf) int {
					log += fmt.Sprintf("%s:%d ", name, len(pkts))
					committedAt = tb.sim.Now()
					return sink.push(pkts)
				}}
			}
			c := tb.core()
			tb.run(c, mk("ingress", tc.ingress), mk("egress", tc.egress))
			tb.sim.Run(eventsim.Millisecond)

			if log != tc.want {
				t.Errorf("commits %q, want %q", log, tc.want)
			}
			if tc.want == "" {
				if tb.sim.Stats().PollsSkipped == 0 {
					t.Error("loop with two empty sources never went idle")
				}
				return
			}
			// One busy iteration priced for both stages together.
			if want := c.CycleTime(float64(tc.ingress+tc.egress) * 100); committedAt != want {
				t.Errorf("committed at %v, want %v", committedAt, want)
			}
			if tb.pool.InUse() != 0 {
				t.Errorf("%d mbufs not back in the pool", tb.pool.InUse())
			}
		})
	}
}

// TestStageScratchNotRefilledBeforeCommit: the burst a stage hands to
// push is the one it pulled; the next pull happens only after the commit,
// so one scratch burst per stage is enough.
func TestStageScratchNotRefilledBeforeCommit(t *testing.T) {
	tb, err := newTestbed(128)
	if err != nil {
		t.Fatal(err)
	}
	src := newStageSource(t, tb, burstSize+8)
	sink := &stageSink{room: burstSize + 8, pool: tb.pool}
	var pullsAtPush []int
	c := tb.core()
	tb.run(c, &stage{src: src.src(), perPkt: 1000, push: func(pkts []*mbuf.Mbuf) int {
		pullsAtPush = append(pullsAtPush, src.pulls)
		return sink.push(pkts)
	}})

	busy := c.CycleTime(burstSize * 1000)
	tb.sim.Run(busy / 2)
	if src.pulls != 1 || len(pullsAtPush) != 0 {
		t.Fatalf("halfway through the first busy time: %d pulls, %d pushes; want 1, 0", src.pulls, len(pullsAtPush))
	}
	tb.sim.Run(busy + c.CycleTime(8*1000) + c.CycleTime(perf.PollIdleCycles))
	if len(pullsAtPush) != 2 || pullsAtPush[0] != 1 || pullsAtPush[1] != 2 {
		t.Fatalf("pulls seen at each push = %v, want [1 2]", pullsAtPush)
	}
	for i, tag := range sink.tags {
		if tag != uint64(i) {
			t.Fatalf("sink got tag %d at position %d: a burst was overwritten before it was pushed", tag, i)
		}
	}
	if len(sink.tags) != burstSize+8 || tb.pool.InUse() != 0 {
		t.Errorf("forwarded %d, %d mbufs out", len(sink.tags), tb.pool.InUse())
	}
}
