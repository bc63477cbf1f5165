package netdev

import (
	"encoding/binary"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/ring"
)

// TestRxWaitIsNotAnEvent checks that a reader waiting for a frame costs
// no event: a poll loop reads a port fed one frame per burst, and over the
// whole run the heap runs the generator's bursts and the loop's start,
// nothing for any frame. The reader's body declares the next frame's due
// instant instead (Sim.WakeBy), and still reads every frame.
func TestRxWaitIsNotAnEvent(t *testing.T) {
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "wait", Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, PortConfig{ID: 0, RateBps: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(sim, GeneratorConfig{Port: p, Pool: pool, FrameSize: 64, OfferedWireBps: 1e9, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	bursts := 0
	burstFn := g.burstFn
	g.burstFn = func() { bursts++; burstFn() }
	read := 0
	buf := make([]*mbuf.Mbuf, 4)
	c := eventsim.NewCore(sim, 0, 0, 2.1e9)
	eventsim.NewPollLoop(sim, c, 40, func() (float64, func()) {
		n := p.RxBurst(0, buf)
		for _, m := range buf[:n] {
			if err := pool.Free(m); err != nil {
				t.Fatal(err)
			}
		}
		read += n
		return float64(100 * n), nil
	}).Start()
	g.Start()
	sim.Run(200 * eventsim.Microsecond)
	g.Stop()
	sim.RunAll()

	if g.Sent() < 250 || read != int(g.Sent()) {
		t.Fatalf("read %d of %d frames sent", read, g.Sent())
	}
	st := sim.Stats()
	if wakeUps := int(st.HeapEvents) - bursts - 1; wakeUps != 0 {
		t.Errorf("%d heap events for %d bursts and the loop's start: %d more, for %d frames", st.HeapEvents, bursts, wakeUps, read)
	}
}

// wakeRig is one side of FuzzReaderWakesAsEager: a Sim, its generator
// and a poll-loop reader that records the instant it read each frame.
type wakeRig struct {
	sim  *eventsim.Sim
	core *eventsim.Core
	loop *eventsim.PollLoop
	port *Port
	g    *Generator
	read map[uint32]eventsim.Time

	// The eager side only: a plain ring per RX queue, which an event per
	// frame delivers into, and the frames it found full.
	rings   []*ring.Ring[uint32]
	dropped uint64
}

// wakeTraffic is what both sides of FuzzReaderWakesAsEager are built from.
type wakeTraffic struct {
	port    PortConfig
	gen     GeneratorConfig
	idle    eventsim.Time // the reader's poll period
	busy    eventsim.Time // what the reader spends per frame it read
	burst   int           // the reader's burst per queue
	stopAt  eventsim.Time // the generator stops
	startAt eventsim.Time // and starts again
	// declared: the lazy side's reader watches the port
	// (eventsim.PollLoop.Watch), so only a burst onto the wire and the
	// deadlines its empty reads declare run its body.
	declared bool
}

// newWakeRig builds one side. The lazy side's reader reads the port; the
// eager side's reads the rings, and its generator feeds a port nobody
// reads, each burst booking an event per frame at the frame's due instant
// into the ring of the frame's queue. Those events draw their seqs right
// after the burst drew the frames' own, with nothing else drawn in
// between but the next burst, which a frame due at that burst's instant
// goes after here and before on the lazy side: no poll can fall between
// the two, so the reader sees the same either way.
func newWakeRig(t *testing.T, tr wakeTraffic, eager bool) *wakeRig {
	t.Helper()
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "wake", Capacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, tr.port)
	if err != nil {
		t.Fatal(err)
	}
	w := &wakeRig{sim: sim, port: p, read: map[uint32]eventsim.Time{}}
	if eager {
		for q := range p.rxQueues {
			r, err := ring.New[uint32]("eager", p.rxQueues[q].r.Capacity()+1)
			if err != nil {
				t.Fatal(err)
			}
			w.rings = append(w.rings, r)
		}
	}
	cfg := tr.gen
	cfg.Port, cfg.Pool = p, pool
	if !eager {
		cfg.Payload = func(i uint64, payload []byte) {
			binary.BigEndian.PutUint32(payload, uint32(i))
		}
	}
	g, err := NewGenerator(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eager {
		burstFn := g.burstFn
		g.burstFn = func() {
			sent := g.Sent()
			burstFn()
			for _, f := range g.pend[len(g.pend)-int(g.Sent()-sent):] {
				id, r := uint32(f.ord), w.rings[f.q]
				sim.At(f.due, func() {
					if !r.Enqueue(id) {
						w.dropped++
					}
				})
			}
		}
	}
	w.g = g

	w.core = eventsim.NewCore(sim, 0, 0, 1e12) // a cycle a picosecond
	mbufs := make([]*mbuf.Mbuf, tr.burst)
	ids := make([]uint32, tr.burst)
	w.loop = eventsim.NewPollLoop(sim, w.core, float64(tr.idle), func() (float64, func()) {
		got := 0
		for q := range p.rxQueues {
			var n int
			if eager {
				n = w.rings[q].DequeueBurst(ids)
			} else {
				n = p.RxBurst(q, mbufs)
				for i, m := range mbufs[:n] {
					ids[i] = binary.BigEndian.Uint32(m.Data()[g.payloadOff:])
					if err := pool.Free(m); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, id := range ids[:n] {
				w.read[id] = sim.Now()
			}
			got += n
		}
		return float64(tr.busy) * float64(got), nil
	})
	if tr.declared && !eager {
		w.loop.Watch(p)
	}
	w.loop.Start()
	g.Start()
	sim.At(tr.stopAt, g.Stop)
	sim.At(tr.startAt, g.Start)
	return w
}

// FuzzReaderWakesAsEager holds when a reader looks, not only what it
// reads, to a port with an event per frame. It drives two Sims with the
// same traffic and the same poll-loop reader: one reads the lazy port,
// the other plain rings that every frame is delivered into by an event of
// its own at its (due, seq). After every Run slice both must have read
// every frame at the same instant, polled as often and kept the core as
// busy, and dropped as many at a full queue: a reader that wakes late, or
// early, shows. Times sit on a grid of quarter frame times, so polls
// often fall on a frame's due instant and the seq decides. With declared
// set the lazy reader watches the port, as every testbed I/O core does:
// nothing but the generator's bursts and its own deadlines wakes it.
func FuzzReaderWakesAsEager(f *testing.F) {
	for _, declared := range []bool{false, true} {
		f.Add(uint8(0), uint8(0), uint16(0), uint8(0), uint8(63), uint8(3), uint8(1), uint8(3), uint16(200), uint16(210), declared)
		f.Add(uint8(0), uint8(7), uint16(0), uint8(1), uint8(3), uint8(2), uint8(0), uint8(0), uint16(81), uint16(82), declared)
		f.Add(uint8(1), uint8(11), uint16(200), uint8(3), uint8(1), uint8(9), uint8(2), uint8(7), uint16(50), uint16(20), declared)
		f.Add(uint8(3), uint8(31), uint16(1436), uint8(2), uint8(0), uint8(0), uint8(7), uint8(1), uint16(0), uint16(400), declared)
	}
	f.Fuzz(func(t *testing.T, rate, burst uint8, size uint16, queues, depth uint8, busy, idle, rburst uint8, stopAt, startAt uint16, declared bool) {
		frameSize := 64 + int(size)%(1500-64+1)
		port := PortConfig{ID: 0, RateBps: 10e9, RxQueues: 1 + int(queues)%4, RxQueueDepth: 1 + int(depth)%64}
		quarter := (&Port{cfg: port}).wireTime(frameSize) / 4
		tr := wakeTraffic{
			port:     port,
			gen:      GeneratorConfig{FrameSize: frameSize, OfferedWireBps: 10e9 / float64(1+rate%4), Burst: 1 + int(burst)%32},
			idle:     eventsim.Time(1+idle%8) * quarter,
			busy:     eventsim.Time(1+busy%16) * quarter,
			burst:    1 + int(rburst)%16,
			stopAt:   eventsim.Time(stopAt%1024) * quarter,
			startAt:  eventsim.Time(startAt%1024) * quarter,
			declared: declared,
		}
		lazy, eager := newWakeRig(t, tr, false), newWakeRig(t, tr, true)
		step := func() {
			t.Helper()
			until := lazy.sim.Now() + 37*quarter
			lazy.sim.Run(until)
			eager.sim.Run(until)
			compareWakeRigs(t, lazy, eager)
		}
		for lazy.sim.Now() < 1200*quarter {
			step()
		}
		lazy.g.Stop()
		eager.g.Stop()
		sent := lazy.g.Sent()
		if lazy.g.AllocFailures() != 0 {
			t.Fatalf("the pool ran dry %d times", lazy.g.AllocFailures())
		}
		// Read what is left: a full queue of every queue at the slowest
		// reader takes some 200 slices.
		for i := 0; uint64(len(lazy.read))+eager.dropped != sent; i++ {
			if i == 1000 {
				t.Fatalf("%d frames sent, %d read and %d dropped", sent, len(lazy.read), eager.dropped)
			}
			step()
		}
	})
}

// compareWakeRigs requires the same reads, at the same instants, the same
// polls and core time, and the same drops of both sides.
func compareWakeRigs(t *testing.T, lazy, eager *wakeRig) {
	t.Helper()
	now := lazy.sim.Now()
	if len(lazy.read) != len(eager.read) {
		t.Fatalf("at %d: the lazy reader read %d frames, the eager %d", now, len(lazy.read), len(eager.read))
	}
	for id, at := range eager.read {
		if got, ok := lazy.read[id]; !ok || got != at {
			t.Fatalf("at %d: frame %#x read at %d by the eager reader, by the lazy one at %d (read: %v)", now, id, at, got, ok)
		}
	}
	if li, ei := lazy.loop.Iterations(), eager.loop.Iterations(); li != ei {
		t.Fatalf("at %d: the lazy reader polled %d times, the eager %d", now, li, ei)
	}
	if lb, eb := lazy.core.Utilization(1), eager.core.Utilization(1); lb != eb {
		t.Fatalf("at %d: the lazy reader's core was busy %v ps, the eager's %v", now, lb, eb)
	}
	if d := lazy.port.Stats().RxDropped; d != eager.dropped {
		t.Fatalf("at %d: the lazy port dropped %d frames, the eager rings %d", now, d, eager.dropped)
	}
}
