package netdev

import (
	"encoding/binary"
	"sort"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// eager is the reference a port's lazy arrival is held to. It books every
// frame at burst time with the queue and the (due, seq) pair burst drew
// for it, and delivers it as an event at that pair would have: into its
// queue if there is room, else dropped with its mbuf back in the pool,
// before any step that goes after it. Every RxBurst the test makes goes
// through read, which brings the reference to the step being run
// (Sim.Running) and holds what the port returns to what the reference's
// queue holds; check does the same for the counters between two Runs.
type eager struct {
	t    testing.TB
	sim  *eventsim.Sim
	pool *mbuf.Pool
	p    *Port
	g    *Generator

	pending   []booking  // booked and not yet delivered, in booking order
	queues    [][]uint32 // the ids each queue holds, oldest first
	delivered uint64
	dropped   uint64
	inUse     int      // mbufs out of the pool
	order     []uint32 // ids in the order the reference delivered them
	written   []uint32 // ids in the order Payload wrote them

	// onFrame, if set, sees every frame read returns before it is freed.
	onFrame func(q int, m *mbuf.Mbuf)
}

// booking is one frame on the wire: id is its ordinal.
type booking struct {
	id  uint32
	q   int
	due eventsim.Time
	seq uint64
}

func (b booking) before(o booking) bool {
	return b.due < o.due || b.due == o.due && b.seq < o.seq
}

func newEager(t testing.TB, cfg PortConfig, poolCap int) *eager {
	t.Helper()
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "eager", Capacity: poolCap})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &eager{t: t, sim: sim, pool: pool, p: p, queues: make([][]uint32, p.Queues())}
}

// addGen builds the port's generator, whose Payload writes the frame's
// id and whose bursts the reference books.
func (e *eager) addGen(cfg GeneratorConfig) *Generator {
	e.t.Helper()
	cfg.Port, cfg.Pool = e.p, e.pool
	cfg.Payload = func(i uint64, payload []byte) {
		e.written = append(e.written, uint32(i))
		binary.BigEndian.PutUint32(payload, uint32(i))
	}
	g, err := NewGenerator(e.sim, cfg)
	if err != nil {
		e.t.Fatal(err)
	}
	e.g = g
	burstFn := g.burstFn
	var lastDue eventsim.Time
	var lastSeq uint64
	g.burstFn = func() {
		// The pool runs dry where it would have with every due frame
		// delivered before the burst asks it.
		e.advance(e.sim.Running())
		want := 0
		if !g.stop {
			want = min(g.cfg.Burst, e.pool.Capacity()-e.inUse)
		}
		sent := g.Sent()
		burstFn()
		if got := int(g.Sent() - sent); got != want {
			e.t.Fatalf("at %d: the generator put %d frames on the wire, the reference %d", e.sim.Now(), got, want)
		}
		for _, f := range g.pend[len(g.pend)-want:] {
			if f.ord < sent || f.due < lastDue || f.seq <= lastSeq || f.due < e.sim.Now() {
				e.t.Fatalf("frame %d booked at (%d, %d) after (%d, %d)", f.ord, f.due, f.seq, lastDue, lastSeq)
			}
			lastDue, lastSeq = f.due, f.seq
			e.pending = append(e.pending, booking{id: uint32(f.ord), q: f.q, due: f.due, seq: f.seq})
		}
		e.inUse += want
	}
	return g
}

// advance delivers every booked frame due by the step (at, seq).
func (e *eager) advance(at eventsim.Time, seq uint64) {
	sort.SliceStable(e.pending, func(a, b int) bool { return e.pending[a].before(e.pending[b]) })
	k := 0
	for ; k < len(e.pending); k++ {
		b := e.pending[k]
		if b.due > at || b.due == at && b.seq > seq {
			break
		}
		if len(e.queues[b.q]) < e.p.rxQueues[b.q].r.Capacity() {
			e.queues[b.q] = append(e.queues[b.q], b.id)
			e.order = append(e.order, b.id)
			e.delivered++
		} else {
			e.dropped++
			e.inUse--
		}
	}
	e.pending = e.pending[k:]
}

// read is RxBurst(q, buf) held to the reference, freeing what it returns.
func (e *eager) read(q int, buf []*mbuf.Mbuf) int {
	e.t.Helper()
	at, seq := e.sim.Running()
	e.advance(at, seq)
	n := e.p.RxBurst(q, buf)
	ref := e.queues[q]
	if want := min(len(buf), len(ref)); n != want {
		e.t.Fatalf("at (%d, %d): queue %d returned %d frames, the reference holds %d of %d", at, seq, q, n, len(ref), len(buf))
	}
	for i, m := range buf[:n] {
		if id := binary.BigEndian.Uint32(m.Data()[e.g.payloadOff:]); id != ref[i] {
			e.t.Fatalf("at (%d, %d): queue %d frame %d is %#x, the reference's %#x", at, seq, q, i, id, ref[i])
		}
		if e.onFrame != nil {
			e.onFrame(q, m)
		}
		if err := e.pool.Free(m); err != nil {
			e.t.Fatal(err)
		}
	}
	e.queues[q] = ref[n:]
	e.inUse -= n
	e.checkWritten()
	return n
}

// checkWritten holds Payload's calls to the reference's deliveries: every
// frame taken is written once, in delivery order, and no drop is.
func (e *eager) checkWritten() {
	e.t.Helper()
	if len(e.written) != len(e.order) {
		e.t.Fatalf("at %d: %d frames written, the reference delivered %d", e.sim.Now(), len(e.written), len(e.order))
	}
	for i := len(e.written) - 1; i >= 0 && e.written[i] != e.order[i]; i-- {
		e.t.Fatalf("delivery %d wrote frame %#x, the reference delivers %#x", i, e.written[i], e.order[i])
	}
}

// check holds the counters to the reference between two Runs. It reads
// the port's counters directly: Stats would take the due frames itself,
// and what is checked is that Run's end already did.
func (e *eager) check() {
	e.t.Helper()
	e.advance(e.sim.Running())
	st := e.p.stats
	if st.RxDelivered != e.delivered || st.RxDropped != e.dropped || e.pool.InUse() != e.inUse {
		e.t.Fatalf("at %d: port delivered %d, dropped %d, %d mbufs in use; the reference %d, %d, %d",
			e.sim.Now(), st.RxDelivered, st.RxDropped, e.pool.InUse(), e.delivered, e.dropped, e.inUse)
	}
	e.checkWritten()
	if st := e.p.Stats(); st.RxDelivered != e.delivered || st.RxDropped != e.dropped {
		e.t.Fatalf("at %d: Stats reads %d delivered, %d dropped; the reference %d, %d", e.sim.Now(), st.RxDelivered, st.RxDropped, e.delivered, e.dropped)
	}
}

// reader starts a poll loop that reads every queue through read, a burst
// of up to burst frames each, and spends busy per frame it got; idle is
// its poll period. Its core runs at 1 THz, a cycle a picosecond, so both
// stay on the grid the test picks.
func (e *eager) reader(idle, busy eventsim.Time, burst int) {
	c := eventsim.NewCore(e.sim, 0, 0, 1e12)
	buf := make([]*mbuf.Mbuf, burst)
	eventsim.NewPollLoop(e.sim, c, float64(idle), func() (float64, func()) {
		n := 0
		for q := range e.queues {
			n += e.read(q, buf)
		}
		return float64(busy) * float64(n), nil
	}).Start()
}

// drain reads every queue empty from outside Run.
func (e *eager) drain() {
	buf := make([]*mbuf.Mbuf, 16)
	for q := range e.queues {
		for e.read(q, buf) > 0 {
		}
	}
}

// finish stops the generator, runs to completion and checks that every
// frame put on the wire was taken: delivered, or dropped at a full queue.
func (e *eager) finish() {
	e.t.Helper()
	g := e.g
	g.Stop()
	e.sim.RunAll()
	e.check()
	sent := g.Sent()
	if g.head != len(g.pend) {
		e.t.Fatalf("generator still has %d frames on the wire after RunAll", len(g.pend)-g.head)
	}
	if len(e.pending) != 0 || e.delivered+e.dropped != sent {
		e.t.Fatalf("%d frames sent, the reference delivered %d and dropped %d, %d pending", sent, e.delivered, e.dropped, len(e.pending))
	}
	e.drain()
	if e.pool.InUse() != 0 {
		e.t.Fatalf("%d mbufs in use after the drain", e.pool.InUse())
	}
}

// TestGeneratorDeliversInScheduleOrder checks the premise the pending-
// frame FIFO rests on: the k-th frame a generator schedules is due no
// earlier than the one before it — one frame time after it within a
// burst, and never before a frame scheduled earlier (the wire is serial)
// — and lands, in that order, on the queue its own flow hashes to. It
// reads every queue between Run steps well under one frame time apart,
// each read held to the eager reference: at line rate, where the next
// burst starts the moment the last one ends, across retargets in both
// directions, and across a Stop/Start that lands in the middle of a burst.
func TestGeneratorDeliversInScheduleOrder(t *testing.T) {
	const queues, frameSize, burst = 4, 64, 8
	e := newEager(t, PortConfig{ID: 0, RateBps: 10e9, RxQueues: queues}, 4096)
	frameWire := e.p.wireTime(frameSize)
	g := e.addGen(GeneratorConfig{FrameSize: frameSize, OfferedWireBps: 10e9, Burst: burst})
	booked := g.burstFn
	var lastDue eventsim.Time
	g.burstFn = func() {
		sent := g.Sent()
		booked()
		for i, f := range g.pend[len(g.pend)-int(g.Sent()-sent):] {
			lastDue = max(lastDue, e.sim.Now()+eventsim.Time(i)*frameWire)
			if f.due != lastDue {
				t.Fatalf("frame %d queued due at %d, want %d", f.ord, f.due, lastDue)
			}
		}
	}

	e.onFrame = func(q int, m *mbuf.Mbuf) {
		frame, err := eth.Parse(m.Data())
		if err != nil {
			t.Fatal(err)
		}
		ip := frame.SrcIP()
		flow := uint64(ip[1])<<16 | uint64(ip[2])<<8 | uint64(ip[3])
		if want := int(mix64(flow) % queues); q != want {
			t.Fatalf("a frame of flow %d landed on queue %d, want %d", flow, q, want)
		}
	}
	step := frameWire / 4
	buf := make([]*mbuf.Mbuf, 2*burst)
	run := func(d eventsim.Time) {
		t.Helper()
		for end := e.sim.Now() + d; e.sim.Now() < end; {
			e.sim.Run(e.sim.Now() + step)
			e.check()
			for q := 0; q < queues; q++ {
				e.read(q, buf)
			}
		}
	}

	g.Start()
	run(20 * eventsim.Microsecond) // line rate: bursts back to back
	if err := g.SetOfferedWireBps(3e9); err != nil {
		t.Fatal(err)
	}
	run(20 * eventsim.Microsecond)
	if err := g.SetOfferedWireBps(10e9); err != nil {
		t.Fatal(err)
	}
	run(20 * eventsim.Microsecond)

	// Stop and Start again with most of a burst still on the wire: the
	// new burst queues behind it instead of overtaking it.
	g.Stop()
	run(eventsim.Microsecond)
	if err := g.SetOfferedWireBps(1e9); err != nil {
		t.Fatal(err)
	}
	g.Start()
	run(2 * frameWire)
	if len(g.pend)-g.head < burst/2 {
		t.Fatalf("only %d frames in flight; the restart below would not overlap a burst", len(g.pend)-g.head)
	}
	g.Stop()
	g.Start()
	run(20 * eventsim.Microsecond)

	e.finish()
	if e.delivered == 0 || e.dropped != 0 {
		t.Fatalf("%d frames delivered, %d dropped; the order check needs them all", e.delivered, e.dropped)
	}
}

// FuzzArrivalMatchesEager holds lazy arrival to the eager reference over
// drawn traffic: offered rate, burst, frame size, 1-4 queues, queue depth,
// pool size, a poll-loop reader's period and busy time per frame, and a
// Stop and a Start of the generator. The
// reader's times, the Stop and the Start sit on a grid of quarter frame
// times, so reads often fall on a frame's due instant and the seq decides.
func FuzzArrivalMatchesEager(f *testing.F) {
	f.Add(uint8(0), uint8(31), uint16(0), uint8(0), uint8(63), uint8(255), uint8(3), uint8(1), uint16(200), uint16(210))
	f.Add(uint8(0), uint8(7), uint16(0), uint8(1), uint8(3), uint8(255), uint8(2), uint8(0), uint16(81), uint16(82))
	f.Add(uint8(1), uint8(11), uint16(200), uint8(3), uint8(1), uint8(4), uint8(9), uint8(2), uint16(50), uint16(20))
	f.Add(uint8(3), uint8(0), uint16(1436), uint8(2), uint8(0), uint8(0), uint8(0), uint8(7), uint16(0), uint16(400))
	f.Fuzz(func(t *testing.T, rate, burst uint8, size uint16, queues, depth, pool uint8, busy, idle uint8, stopAt, startAt uint16) {
		frameSize := 64 + int(size)%(1500-64+1)
		e := newEager(t, PortConfig{ID: 0, RateBps: 10e9, RxQueues: 1 + int(queues)%4, RxQueueDepth: 1 + int(depth)%64}, 8+4*int(pool))
		quarter := e.p.wireTime(frameSize) / 4
		cfg := GeneratorConfig{FrameSize: frameSize, OfferedWireBps: 10e9 / float64(1+rate%4), Burst: 1 + int(burst)%32}
		g := e.addGen(cfg)
		e.reader(eventsim.Time(1+idle%8)*quarter, eventsim.Time(1+busy%16)*quarter, 1+int(burst)%16)
		g.Start()
		e.sim.At(eventsim.Time(stopAt%1024)*quarter, g.Stop)
		e.sim.At(eventsim.Time(startAt%1024)*quarter, g.Start)
		for e.sim.Now() < 1200*quarter {
			e.sim.Run(e.sim.Now() + 37*quarter)
			e.check()
		}
		e.finish()
	})
}
