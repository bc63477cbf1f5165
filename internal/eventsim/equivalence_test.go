package eventsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveLoop is the reference PollLoop is checked against: the poll loop as
// it was before idle polls became lazy. Every iteration, idle or not, runs
// the body and reschedules itself through the event heap, and the loop
// keeps its core's books itself.
type naiveLoop struct {
	sim        *Sim
	core       *Core
	idleCycles float64
	body       PollBody
	stopped    bool
	iterations uint64
	freeAt     Time // when the iteration being spent ends
	busy       Time
}

func (l *naiveLoop) Start()             { l.sim.After(0, l.iterate) }
func (l *naiveLoop) Stop()              { l.stopped = true }
func (l *naiveLoop) Iterations() uint64 { return l.iterations }
func (l *naiveLoop) WakeBy(Time)        {}
func (l *naiveLoop) Watch(Input)        {}
func (l *naiveLoop) Poke()              {}

func (l *naiveLoop) iterate() {
	if l.stopped {
		return
	}
	l.iterations++
	cycles, commit := l.body()
	if cycles <= 0 {
		cycles = l.idleCycles
	}
	d := l.core.CycleTime(cycles)
	l.freeAt = l.sim.Now() + d
	l.busy += d
	l.sim.At(l.freeAt, func() {
		if commit != nil {
			commit()
		}
		l.iterate()
	})
}

// books is what a reader of a loop's accounting reads of its core: the
// Core for a PollLoop, the loop itself for naiveLoop.
type books interface {
	FreeAt() Time
	Utilization(horizon Time) float64
	busyTime() Time
	raw() (busy, freeAt Time) // what FreeAt and busyTime read, landing nothing
}

func (l *naiveLoop) FreeAt() Time                     { return l.freeAt }
func (l *naiveLoop) Utilization(horizon Time) float64 { return float64(l.busy) / float64(horizon) }
func (l *naiveLoop) busyTime() Time                   { return l.busy }
func (l *naiveLoop) raw() (busy, freeAt Time)         { return l.busy, l.freeAt }

func (c *Core) raw() (busy, freeAt Time) { return c.loop.busy, c.loop.nextAt }

// poller is what a scenario needs of either loop.
type poller interface {
	Start()
	Stop()
	Iterations() uint64
	WakeBy(Time)
	Watch(Input)
	Poke()
}

// rec is one observable step of a scenario. Two runs are equivalent when
// their rec sequences are equal: same things, same virtual times, same
// order — also among things at one picosecond-equal instant.
type rec struct {
	at    Time
	what  string
	actor int
	a, b  int64
}

func (r rec) String() string {
	return fmt.Sprintf("%d ps %s[%d] %d %d", int64(r.at), r.what, r.actor, r.a, r.b)
}

// stage is one polling actor of a scenario: an inbox standing in for a
// ring, optionally a staging area flushed by size or by timeout (the
// Packer), optionally held back while "blocked" (a pending PR). The inbox
// is an Input and so is the chain — put and the chain's bursts are the only
// ways they grow — and a stage that is "declared" has its loop watch both,
// as two inputs (a per-port core watching its NIC and its OBQ) or as one
// that counts both (stageAndChain).
type stage struct {
	sc    *scenario
	id    int
	core  *Core
	loop  poller
	books books

	inbox    int
	produced uint64  // everything ever put into inbox
	next     int     // stage fed by this one's commits, -1 for none
	burst    int     // items taken per iteration
	cost     float64 // cycles per busy iteration; 0 exercises (0, commit)
	stages   bool    // keeps items until timeout or cap
	held     int
	heldAt   Time
	timeout  Time
	cap      int
	blocked  bool
	direct   bool // hands its output on from the body, not from commit
	posts    bool // its commit also Posts an item back to itself
	simWake  bool // declares its deadlines through Sim.WakeBy
}

func (st *stage) put(k int) {
	st.inbox += k
	st.produced += uint64(k)
}

// Produced counts what was put into the inbox. A declared stage watches the
// chain too, whose bursts may aim at any stage: it looks again when either
// grows.
func (st *stage) Produced() uint64 { return st.produced }

// stageAndChain is a stage's inbox and the chain as one Input.
type stageAndChain struct{ st *stage }

func (in stageAndChain) Produced() uint64 { return in.st.produced + in.st.sc.chain.drawn }

// wakeBy declares the body's deadline: to its loop, or through the Sim, as
// code a body calls that does not know the loop does (a port's RxBurst).
func (st *stage) wakeBy(t Time) {
	if st.simWake {
		st.sc.sim.WakeBy(t)
		return
	}
	st.loop.WakeBy(t)
}

// retune shortens a staging stage's timeout from outside, as
// SetAccFlushTimeout does under a staged batch: the deadline the body
// declared moves and no inbox grows, so the loop has to be poked.
func (st *stage) retune() {
	st.sc.log(rec{st.sc.sim.Now(), "retune", st.id, int64(st.timeout), 0})
	st.timeout = max(st.timeout/2, 10*Nanosecond)
	st.loop.Poke()
}

func (st *stage) body() (float64, func()) {
	sc := st.sc
	now := sc.sim.Now()
	sc.chain.take()
	out := 0
	cycles := 0.0
	if st.held > 0 {
		switch {
		case now-st.heldAt < st.timeout:
			st.wakeBy(st.heldAt + st.timeout)
		case st.blocked:
			st.wakeBy(now)
		default:
			out, st.held = st.held, 0
			cycles += st.cost + 3
		}
	}
	take := min(st.inbox, st.burst)
	if take == 0 && out == 0 {
		sc.chain.wait()
		return 0, nil
	}
	st.inbox -= take
	if take > 0 {
		cycles += st.cost
		if st.stages {
			if st.held == 0 {
				st.heldAt = now
			}
			st.held += take
			if st.held >= st.cap && !st.blocked {
				out += st.held
				st.held = 0
			}
		} else {
			out += take
		}
	}
	sc.log(rec{now, "busy", st.id, int64(cycles), int64(take)})
	if st.direct && st.next >= 0 && cycles > 0 {
		sc.stages[st.next].put(out)
		out = 0
	}
	if out == 0 {
		return cycles, nil
	}
	return cycles, func() {
		sc.log(rec{sc.sim.Now(), "commit", st.id, int64(out), 0})
		if st.next >= 0 {
			sc.stages[st.next].put(out)
		}
		if st.posts && out%2 == 1 {
			sc.sim.Post(func() {
				sc.log(rec{sc.sim.Now(), "post-commit", st.id, 1, 0})
				st.put(1)
			})
		}
	}
}

type scenario struct {
	sim    *Sim
	stages []*stage
	chain  *chain
	trace  []rec
	fed    []rec // the chain's items, as they reach their stages
}

// chain is a source of items due at non-decreasing times, drawn in bursts,
// each in a place drawn at burst time (Sim.DrawSeq), as netdev.Generator
// draws its frames'. The naive run books every item with At at burst time.
// The lazy run books nothing: like a port's frames, its items wait until a
// stage's body, a probe or the Sim's catch-up (Lazy) takes the due ones,
// and a body that finds nothing to do declares the next item's instant
// through Sim.WakeBy, as Port.RxBurst does. The chain is an Input that
// counts the items drawn, so that a stage that declared its inbox looks
// again when a burst adds to the chain.
type chain struct {
	sc      *scenario
	lazy    bool
	pend    []chained
	drawn   uint64
	lastDue Time
}

// chained is one item of a chain: put one into stage target at at.
type chained struct {
	at     Time
	seq    uint64
	target int
}

// burst draws n items, gap apart from lead after the first nanosecond
// boundary at or after now, none due before an item drawn earlier.
func (ch *chain) burst(n int, gap, lead Time, target int) {
	sim := ch.sc.sim
	base := (sim.Now()+Nanosecond-1)/Nanosecond*Nanosecond + lead
	for i := 0; i < n; i++ {
		ch.lastDue = max(ch.lastDue, base+Time(i)*gap)
		it := chained{at: ch.lastDue, target: (target + i) % len(ch.sc.stages)}
		ch.drawn++
		if !ch.lazy {
			sim.At(it.at, func() { ch.put(it) })
			continue
		}
		it.seq = sim.DrawSeq()
		ch.pend = append(ch.pend, it)
	}
}

func (ch *chain) Produced() uint64 { return ch.drawn }

// take puts every lazy item due before the step being run (Sim.Running)
// into its stage.
func (ch *chain) take() {
	at, seq := ch.sc.sim.Running()
	k := 0
	for ; k < len(ch.pend); k++ {
		it := ch.pend[k]
		if it.at > at || it.at == at && it.seq > seq {
			break
		}
		ch.put(it)
	}
	ch.pend = ch.pend[k:]
}

// CatchUp takes every item due by now (Lazy).
func (ch *chain) CatchUp() { ch.take() }

// wait declares, from a body about to report idle, when the lazy chain's
// next item is due.
func (ch *chain) wait() {
	if len(ch.pend) > 0 {
		ch.sc.sim.WakeBy(ch.pend[0].at)
	}
}

// put hands item it to its stage, at its own instant on either run.
func (ch *chain) put(it chained) {
	ch.sc.fed = append(ch.sc.fed, rec{it.at, "chain", it.target, 1, 0})
	ch.sc.stages[it.target].put(1)
}

func (sc *scenario) log(r rec) { sc.trace = append(sc.trace, r) }

// probe records what a reader of the loops' accounting sees right now.
func (sc *scenario) probe(tag string) {
	sc.chain.take()
	for _, st := range sc.stages {
		// busyTime lands the core's loop itself: Go leaves the order of a
		// bare field read and a call in one composite literal unspecified.
		sc.log(rec{sc.sim.Now(), tag, st.id, int64(st.loop.Iterations()), int64(st.books.busyTime())})
		sc.log(rec{sc.sim.Now(), tag + "-free", st.id, int64(st.books.FreeAt()), int64(st.inbox)})
	}
}

// read is one reader of a loop's accounting, issued between two Run calls,
// in a posted function or in an event; after a quiet Run each has to land
// the loops it reads (Sim.hush).
func (sc *scenario) read(st *stage, what int) {
	now := sc.sim.Now()
	switch what {
	case 0:
		sc.log(rec{now, "iterations", st.id, int64(st.loop.Iterations()), 0})
	case 1:
		sc.log(rec{now, "free-at", st.id, int64(st.books.FreeAt()), 0})
	case 2:
		u := st.books.Utilization(now + Microsecond)
		sc.log(rec{now, "utilization", st.id, int64(math.Float64bits(u)), 0})
	default:
		// Only the lazy loop skips, so the count itself differs; what it
		// lands shows in the raw fields read after it.
		sc.sim.Stats()
		busy, freeAt := st.books.raw()
		sc.log(rec{now, "skipped", st.id, int64(busy), int64(freeAt)})
	}
}

// numReads is how many kinds of read there are. Stop, which lands a loop
// too, has cases of its own.
const numReads = 4

// A scenario's kind is the top three bits of its seed; every random choice
// is drawn from the whole seed. In each kind a random two thirds of the
// stages declare their inbox and the rest stay undeclared, so both clean
// rules meet at the same instants.
const (
	// kindMixed: events scheduled up front, run in a few uneven slices.
	kindMixed = iota
	// kindStepped: a closed loop as an NF developer drives one — short
	// steps, an inbox filled between nearly every two of them, little
	// scheduled ahead (SendPackets, Run(now+1us), ReceivePackets).
	kindStepped
	// kindRetuned: every stage stages, and timeouts are shortened from
	// outside under held items, in events and between slices.
	kindRetuned
	// kindQuiet: long runs of back-to-back 1 us steps with nothing between
	// them, as an NF developer waits for a burst, so that most steps find
	// nothing due; now and then something happens between two of them.
	kindQuiet
	// kindChained: a chain feeds the stages in bursts, and its items,
	// plain events and busy loops' finishes share nanosecond instants.
	kindChained
	numKinds
)

func kindSeed(kind int, seed uint64) uint64 { return uint64(kind)<<61 | seed }

// runScenario plays the scenario drawn from seed with real PollLoops
// (lazy) or naive ones and returns its trace and the chain's items as
// they reached their stages. Every random choice is made from seed alone,
// in an order that does not depend on which loop is used.
func runScenario(seed uint64, lazy bool) (trace, fed []rec) {
	rng := rand.New(rand.NewSource(int64(seed)))
	kind := int(seed>>61) % numKinds
	sim := New()
	sc := &scenario{sim: sim}
	sc.chain = &chain{sc: sc, lazy: lazy}
	if lazy {
		sim.AddLazy(sc.chain)
	}

	// Clocks whose periods share instants (1 ns, 0.5 ns per cycle) and one
	// that does not (476.19 ps): order at shared instants is the hard part.
	// The chained kind keeps every loop on the nanosecond grid's clocks.
	clocks := []float64{1e9, 1e9, 2e9, 2.1e9}
	grid := Nanosecond / 2
	if kind == kindChained {
		clocks, grid = clocks[:3], Nanosecond
	}
	idles := []float64{60, 60, 10, 28, 7}
	n := 1 + rng.Intn(6)
	if rng.Intn(16) == 0 {
		n += inlineSlots // more loops than the sets hold inline
	}
	hz, idle := clocks[rng.Intn(len(clocks))], idles[rng.Intn(len(idles))]
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 { // else same clock as the previous loop
			hz, idle = clocks[rng.Intn(len(clocks))], idles[rng.Intn(len(idles))]
		}
		st := &stage{sc: sc, id: i, next: rng.Intn(n+1) - 1, burst: 1 + rng.Intn(4),
			direct: rng.Intn(5) == 0, posts: rng.Intn(5) == 0, simWake: i%2 == 1}
		st.core = NewCore(sim, i, 0, hz)
		// Busy iterations shorter than, equal to and longer than an idle one.
		st.cost = []float64{idle - 4, idle, idle + 4, 2*idle + 1, 3, 0}[rng.Intn(6)]
		if rng.Intn(3) == 0 || kind == kindRetuned {
			st.stages = true
			st.timeout = Time(50+rng.Intn(2000)) * Nanosecond
			st.cap = 2 + rng.Intn(8)
			st.cost++ // staging commits nothing, so it has to cost something
		}
		if lazy {
			st.loop, st.books = NewPollLoop(sim, st.core, idle, st.body), st.core
		} else {
			naive := &naiveLoop{sim: sim, core: st.core, idleCycles: idle, body: st.body}
			st.loop, st.books = naive, naive
		}
		if rng.Intn(3) != 0 {
			if i%3 == 0 {
				st.loop.Watch(stageAndChain{st})
			} else {
				st.loop.Watch(st)
				st.loop.Watch(sc.chain)
			}
		}
		sc.stages = append(sc.stages, st)
		if rng.Intn(4) == 0 { // off-phase start
			at := Time(rng.Intn(500)) * Nanosecond / 2
			sim.At(at, st.loop.Start)
		} else {
			st.loop.Start()
		}
	}

	horizon := Time(5+rng.Intn(40)) * Microsecond
	// when draws event times: mostly on the half-nanosecond grid the idle
	// polls of the 1 and 2 GHz cores sit on (the chained kind: on whole
	// nanoseconds, where its chain's items fall), sometimes anywhere.
	when := func() Time {
		if rng.Intn(5) == 0 {
			return Time(rng.Int63n(int64(horizon)))
		}
		return Time(rng.Int63n(int64(horizon/grid))) * grid
	}
	chainBurst := func() func() {
		items, gap, target := 1+rng.Intn(12), Time(rng.Intn(3))*Nanosecond, rng.Intn(n)
		// Half the bursts start a while off, so that a stage polls in
		// between and then at an item's instant only because its body
		// declared it.
		lead := Time(rng.Intn(2)*rng.Intn(64)) * Nanosecond
		return func() {
			sc.log(rec{sim.Now(), "burst", target, int64(items), int64(gap)})
			sc.chain.burst(items, gap, lead, target)
		}
	}
	produce := func(tag string, target, k int) func() {
		return func() {
			sc.log(rec{sim.Now(), tag, target, int64(k), 0})
			sc.stages[target].put(k)
		}
	}
	timer := sim.NewTimer(produce("timer", rng.Intn(n), 1))
	events := 5 + rng.Intn(120)
	switch kind {
	case kindStepped, kindQuiet:
		events /= 8
	case kindChained:
		events *= 3 // instants shared by all three are what it is for
	}
	for ; events > 0; events-- {
		target := rng.Intn(n)
		st := sc.stages[target]
		c := rng.Intn(20)
		if kind == kindRetuned && c >= 16 {
			c = 12
		}
		if kind == kindChained && c >= 14 && c < 18 {
			sim.At(when(), chainBurst())
			continue
		}
		switch c {
		default:
			sim.At(when(), produce("produce", target, 1+rng.Intn(6)))
		case 8, 9, 10:
			// Work for every loop at once: they all turn busy at their next
			// poll, and where those coincide the trace shows their order.
			sim.At(when(), func() {
				for i := range sc.stages {
					produce("produce-all", i, 1)()
				}
			})
		case 0:
			sim.At(when(), func() {
				sc.log(rec{sim.Now(), "block", target, 0, 0})
				st.blocked = !st.blocked
			})
		case 1:
			if rng.Intn(4) == 0 {
				sim.At(when(), func() {
					sc.log(rec{sim.Now(), "stop", target, int64(st.loop.Iterations()), 0})
					st.loop.Stop()
				})
			}
		case 2, 3:
			// Re-arming leaves stale fires behind; they must not matter.
			d := Time(rng.Intn(400)) * Nanosecond
			sim.At(when(), func() { timer.Reset(d) })
		case 4:
			sim.At(when(), func() { timer.Stop() })
		case 5:
			sim.At(when(), func() { sim.Post(produce("post", target, 2)) })
		case 6:
			sim.At(when(), func() { sc.probe("probe") })
		case 12:
			if st.stages {
				sim.At(when(), st.retune)
			}
		case 13:
			what := rng.Intn(numReads)
			sim.At(when(), func() { sc.read(st, what) })
		}
	}

	// soon draws the time of an event scheduled from outside Run: mostly on
	// the half-nanosecond grid within a few steps, where the loops a quiet
	// step left behind land.
	soon := func() Time {
		if rng.Intn(5) == 0 {
			return sim.Now() + Time(rng.Int63n(int64(4*Microsecond)))
		}
		return sim.Now() + Time(rng.Intn(8000))*Nanosecond/2
	}
	// Run in uneven slices, changing state between them the way callers of
	// SendPackets, serve.go's paced loop and tests do. A reader of the
	// loops' accounting lands them, so the probe reads after only some
	// slices: after every one, nothing but the probe would ever land a loop
	// a quiet step left behind.
	span := horizon / 4
	if kind == kindStepped {
		span = 2 * Microsecond
	}
	for sim.Now() < horizon {
		until := sim.Now() + Time(1+rng.Int63n(int64(span)))
		if kind == kindQuiet {
			until = sim.Now() + Microsecond
			if rng.Intn(16) == 0 { // a horizon already passed: nothing moves
				until = sim.Now() - Time(rng.Intn(4000))*Nanosecond/2
			}
		}
		sim.Run(until)
		if rng.Intn(3) == 0 {
			sc.probe("slice")
		}
		if kind == kindQuiet && rng.Intn(8) != 0 {
			continue
		}
		target := rng.Intn(n)
		st := sc.stages[target]
		c := rng.Intn(10)
		if kind == kindStepped && c >= 3 && c < 6 {
			c = 0
		}
		switch c {
		case 0:
			produce("between", target, 1+rng.Intn(3))()
		case 1:
			posted := make(chan struct{})
			go func() {
				sim.Post(produce("post-goroutine", target, 1))
				close(posted)
			}()
			<-posted
		case 2:
			if rng.Intn(4) == 0 {
				st.loop.Stop()
			}
		case 3:
			if st.stages {
				st.retune()
			}
		case 4:
			sim.At(soon(), produce("outside", target, 1))
		case 5:
			at := soon()
			sim.Post(func() { sim.At(at, produce("posted-at", target, 1)) })
		case 6, 7:
			sc.read(st, rng.Intn(numReads))
		case 8:
			what := rng.Intn(numReads)
			sim.Post(func() { sc.read(st, what) })
		case 9:
			if kind == kindChained {
				chainBurst()()
			}
		}
	}
	sc.log(rec{sim.Now(), "end", 0, 0, 0})
	return sc.trace, sc.fed
}

func checkEquivalent(t *testing.T, seed uint64) {
	t.Helper()
	want, wantFed := runScenario(seed, false)
	got, gotFed := runScenario(seed, true)
	want, got = append(want, wantFed...), append(got, gotFed...)
	for i := 0; i < len(want) || i < len(got); i++ {
		if i >= len(want) || i >= len(got) || want[i] != got[i] {
			w, g := "<end of trace>", "<end of trace>"
			if i < len(want) {
				w = want[i].String()
			}
			if i < len(got) {
				g = got[i].String()
			}
			t.Fatalf("seed %d: traces diverge at step %d of %d/%d:\n  naive: %s\n  lazy:  %s", seed, i, len(want), len(got), w, g)
		}
	}
}

// FuzzPollLoopEquivalence checks PollLoop against naiveLoop on random
// scenarios: same busy iterations and commits at the same times in the
// same order, and the same Iterations, core busy time and FreeAt wherever
// they are read. Every other stage declares its deadlines through
// Sim.WakeBy instead of its loop's.
func FuzzPollLoopEquivalence(f *testing.F) {
	for seed := uint64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	for kind := kindMixed + 1; kind < numKinds; kind++ {
		for seed := uint64(0); seed < 8; seed++ {
			f.Add(kindSeed(kind, seed))
		}
	}
	f.Fuzz(checkEquivalent)
}

// TestPollLoopEquivalence runs a wider fixed sweep than the fuzz corpus,
// over every kind of scenario.
func TestPollLoopEquivalence(t *testing.T) {
	n := uint64(500)
	if testing.Short() {
		n = 150
	}
	for kind := 0; kind < numKinds; kind++ {
		for seed := uint64(1000); seed < 1000+n; seed++ {
			checkEquivalent(t, kindSeed(kind, seed))
		}
	}
}

// TestPollLoopEquivalenceChainedCoincide checks that the chained kind
// reaches what it is there for: instants at which a chain item, a plain
// event and a busy loop's finish (its commit) all run.
func TestPollLoopEquivalenceChainedCoincide(t *testing.T) {
	const seeds = 50
	hits := 0
	for seed := uint64(1000); seed < 1000+seeds; seed++ {
		seen := map[Time]int{}
		trace, fed := runScenario(kindSeed(kindChained, seed), true)
		for _, r := range append(trace, fed...) {
			switch r.what {
			case "chain":
				seen[r.at] |= 1
			case "produce", "produce-all", "burst", "timer", "outside", "posted-at":
				seen[r.at] |= 2
			case "commit":
				seen[r.at] |= 4
			}
		}
		for _, m := range seen {
			if m == 7 {
				hits++
				break
			}
		}
	}
	if hits < seeds/4 {
		t.Fatalf("%d of %d chained scenarios put a chain item, an event and a finish on one instant", hits, seeds)
	}
}
