// Package eventsim provides a deterministic discrete-event simulator used as
// the time authority for the DHL testbed reproduction.
//
// The simulator models virtual time as int64 picoseconds so that CPU cycles
// at non-integral-nanosecond frequencies (e.g. 2.1 GHz -> 476.19 ps/cycle)
// accumulate with negligible rounding error. All hardware and software
// components in the reproduction are actors on a single event loop, which
// makes every experiment bit-for-bit reproducible.
package eventsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Time is a virtual timestamp in picoseconds since simulation start.
type Time int64

// Common durations expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports the time span in floating-point seconds.
func (t Time) Seconds() float64 {
	return float64(t) / float64(Second)
}

// Micros reports the time span in floating-point microseconds.
func (t Time) Micros() float64 {
	return float64(t) / float64(Microsecond)
}

// String renders the timestamp at microsecond granularity for diagnostics.
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", t.Micros())
}

// FromSeconds converts floating-point seconds into simulator Time.
func FromSeconds(s float64) Time {
	if math.IsInf(s, 1) || s > float64(never)/float64(Second) {
		return never
	}
	return Time(s * float64(Second))
}

// never is the time no event is ever scheduled at: the "no deadline" value.
const never = Time(math.MaxInt64)

// event is a single scheduled callback. Events are ordered by (at, seq):
// seq is drawn when the event is scheduled, so events at equal times run
// in the order they were scheduled.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// inlineSlots is how many poll loops, and Lazy registrations, a Sim keeps
// in arrays of its own. Past that NewPollLoop and AddLazy grow the sets,
// at set-up: a loop joining its set never allocates.
const inlineSlots = 32

// Sim is a single-threaded discrete-event simulation.
//
// Sim is not safe for concurrent use: all actors run on the event loop
// goroutine, which is exactly what makes runs deterministic. The one
// exception is Post, the external mailbox: any goroutine may Post a
// function, and the driving goroutine executes it at the next safe point
// inside Run. That is how the control plane injects management
// operations into a live system without locking against the data path.
type Sim struct {
	now     Time
	seq     uint64  // the last seq drawn; drawn seqs are even (see step)
	cur     uint64  // seq of the step being run; maxSeq outside Run
	events  []event // binary min-heap on (at, seq)
	stats   Stats
	polling *PollLoop // the loop whose body is running, if any (WakeBy)

	// Poll loops out of the heap (see PollLoop): each idle one parked with
	// its next poll as its pending (nextAt, seq), each busy one with its
	// iteration's finish, the pair the heap would have held; Run merges
	// both sets with the heap. A declared loop whose pending poll comes
	// first and is a no-op goes dormant, in no set Run walks, its pending
	// poll left where it was until it wakes or is read (see step);
	// wakeNext is at or before the earliest dormant deadline poll.
	// NewPollLoop keeps room in each set for every loop. executed counts
	// everything that may have changed what an undeclared loop's body sees:
	// one that last polled at the current value has nothing new to look at.
	parked   []*PollLoop
	busy     []*PollLoop
	dormant  []*PollLoop
	wakeNext Time
	executed uint64

	// External mailbox (Post). postPending lets Run's inner loop check for
	// posted work with a single atomic load per event, so the data path
	// never takes the mutex unless someone actually posted.
	postMu      sync.Mutex
	posted      []func()
	postScratch []func()
	postPending atomic.Bool

	// State kept behind the clock (see Lazy), brought up to date at the
	// end of every Run and before posted work runs.
	lazy []Lazy

	// loops counts the poll loops made; the sets' first inlineSlots slots.
	// Last, so that what every Run step reads stays on a few cache lines.
	loops       int
	parkedBack  [inlineSlots]*PollLoop
	busyBack    [inlineSlots]*PollLoop
	dormantBack [inlineSlots]*PollLoop
	lazyBack    [inlineSlots]Lazy
	group       []*PollLoop // scratch for join, room for every loop
	groupBack   [inlineSlots]*PollLoop

	// The steps run since every dormant loop was last landed, while one
	// was dormant (see step).
	nsteps int
	steps  [stepLog]step
}

// maxSeq is the seq Running reports outside Run: every pending event at
// the current time goes before it.
const maxSeq = math.MaxUint64

// New creates an empty simulation with the clock at zero.
func New() *Sim {
	s := &Sim{cur: maxSeq, wakeNext: never}
	s.parked, s.busy, s.dormant = s.parkedBack[:0], s.busyBack[:0], s.dormantBack[:0]
	s.lazy, s.group = s.lazyBack[:0], s.groupBack[:0]
	return s
}

// addLoop keeps room for one more poll loop in the parked, busy and
// dormant sets.
func (s *Sim) addLoop() {
	s.loops++
	s.parked = slices.Grow(s.parked, s.loops-len(s.parked))
	s.busy = slices.Grow(s.busy, s.loops-len(s.busy))
	s.dormant = slices.Grow(s.dormant, s.loops-len(s.dormant))
	s.group = slices.Grow(s.group, s.loops-len(s.group))
}

// Now reports the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Running reports the place of the step being run among all events: its
// time and seq. An event at the same time with a higher seq has not run
// yet. Outside Run the seq is the largest there is, so everything due by
// Now has run; posted work sees the step that ran last.
func (s *Sim) Running() (Time, uint64) { return s.now, s.cur }

// Lazy is state an actor keeps behind the clock instead of updating it
// with an event at every instant it changes: it brings itself up to
// Running whenever it is read. CatchUp does so for readers that do not
// go through the actor; the Sim calls it at the end of every Run and
// before posted work runs.
type Lazy interface{ CatchUp() }

// AddLazy registers l for CatchUp. A Sim takes any number of them; past
// inlineSlots, registering allocates.
func (s *Sim) AddLazy(l Lazy) { s.lazy = append(s.lazy, l) }

// catchUp brings every Lazy registration up to Running.
func (s *Sim) catchUp() {
	for _, l := range s.lazy {
		l.CatchUp()
	}
}

// Stats counts the steps a Sim has taken, by kind. Processed is the sum of
// the first three: the steps Run executes.
type Stats struct {
	// HeapEvents counts scheduled callbacks run.
	HeapEvents uint64
	// Finishes counts busy poll loops' iterations ended: the commit and
	// the body's next run.
	Finishes uint64
	// ParkedRuns counts parked poll loops' polls whose body ran.
	ParkedRuns uint64
	// IdleRuns counts body runs, wherever they ran, that found nothing to
	// do and returned (0, nil).
	IdleRuns uint64
	// Skips counts the steps that accounted for a run of an idle loop's
	// no-op polls at once: an undeclared parked loop's skip, and a dormant
	// loop's landing, when it wakes or its accounting is read.
	Skips uint64
	// PollsSkipped counts idle polls accounted for (time, core
	// utilization, PollLoop.Iterations) without running the body.
	PollsSkipped uint64
	// StaleFires counts the heap events that were a Timer's stale fire:
	// the timer had been stopped or re-armed since. HeapEvents counts
	// them too.
	StaleFires uint64
}

// Processed reports the number of steps Run has executed: heap events,
// busy loops' finishes and parked loops' polls whose body ran (Stats has
// each). Idle polls that were skipped are not counted.
func (s *Sim) Processed() uint64 {
	return s.stats.HeapEvents + s.stats.Finishes + s.stats.ParkedRuns
}

// Stats reports the steps taken so far by kind. Read after Run(until)
// returns, PollsSkipped includes every idle poll up to until.
func (s *Sim) Stats() Stats {
	for _, q := range s.dormant {
		s.land(q)
	}
	return s.stats
}

// WakeBy declares, from inside a poll body, that the body's idle result
// expires at time t: it is PollLoop.WakeBy of the loop whose body is
// running, for code the body calls that does not know the loop (a port's
// RxBurst). Called from anywhere else it does nothing.
//
//dhl:hotpath
func (s *Sim) WakeBy(t Time) {
	if p := s.polling; p != nil {
		p.WakeBy(t)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is clamped to "now": the event runs before any later-scheduled work.
// //go:noinline keeps At a call of its own: inlined, it makes After too
// large to inline into its callers.
//
//go:noinline
//dhl:hotpath
func (s *Sim) At(t Time, fn func()) {
	if fn == nil {
		return
	}
	if t < s.now {
		t = s.now
	}
	s.seq += 2
	s.push(t, s.seq, fn)
}

// DrawSeq draws the place among events at one instant that an event
// scheduled now would take, for something that is not an event but falls
// due in that place: a frame on the wire, which a port takes when the
// step being run (Running) goes after it.
func (s *Sim) DrawSeq() uint64 {
	s.seq += 2
	return s.seq
}

// push adds an event to the heap.
//
//dhl:hotpath
func (s *Sim) push(t Time, seq uint64, fn func()) {
	ev := event{at: t, seq: seq, fn: fn}
	h := append(s.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	s.events = h
}

// pop removes and returns the earliest event.
//
//dhl:hotpath
func (s *Sim) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the callback reference
	h = h[:n]
	s.events = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// After schedules fn to run d picoseconds from now.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Post schedules fn to run on the event-loop goroutine at the next safe
// point inside Run: before the next event executes, at the current
// virtual time. Unlike every other Sim method, Post is safe to call from
// any goroutine — it is the bridge by which external actors (the control
// plane's HTTP handlers, operator CLIs) inject work into a live
// simulation. Posted functions run in post order, may themselves
// schedule events, and must not block. If nothing is driving Run, the
// function waits for the next Run call; callers that need a reply should
// wait with a real-time timeout.
func (s *Sim) Post(fn func()) {
	if fn == nil {
		return
	}
	s.postMu.Lock()
	s.posted = append(s.posted, fn)
	s.postMu.Unlock()
	s.postPending.Store(true)
}

// drainPosted runs every function waiting in the external mailbox. Only
// the event-loop goroutine calls it (from Run), so posted functions see
// the same single-threaded world as any scheduled event. The swap keeps
// the mutex window to a slice exchange; functions posted while draining
// are picked up by the next check.
func (s *Sim) drainPosted() {
	s.executed++
	s.catchUp()
	s.postMu.Lock()
	batch := s.posted
	s.posted = s.postScratch[:0]
	s.postPending.Store(false)
	s.postMu.Unlock()
	for i, fn := range batch {
		batch[i] = nil
		fn()
	}
	s.postScratch = batch
}

// Run executes events in timestamp order until nothing is left to do or
// the clock would pass "until". Processed counts the steps it executes.
//
// Between events (and once on entry) Run drains the external mailbox, so
// functions handed to Post from other goroutines execute here, on the
// driving goroutine, serialized against the actors.
//
// Idle poll loops do not keep Run going: once the heap is empty and every
// poll loop is idle with no deadline, nothing can ever happen again, and
// RunAll returns.
func (s *Sim) Run(until Time) {
	// Whoever ran between two Run calls may have filled a ring.
	s.executed++
	if s.postPending.Load() {
		s.drainPosted()
	}
	for {
		// f is the busy loop whose finish is due first, if that goes
		// before the heap top; the first parked poll is compared with
		// whichever of the two goes first. next is when the first of all
		// three is due.
		f, fi := (*PollLoop)(nil), -1
		if len(s.busy) != 0 {
			fi = s.firstBusy()
			if f = s.busy[fi]; len(s.events) != 0 && !f.beforeEvent(&s.events[0]) {
				f = nil
			}
		}
		p, next := s.firstParked(), never
		switch {
		case p != nil && p.beforeNext(f, s.events):
			next = p.nextAt
		case f != nil:
			p, next = nil, f.nextAt
		case len(s.events) > 0:
			p, next = nil, s.events[0].at
		default:
			p = nil
		}
		if w := s.wakeNext; w != never && w <= until && w <= next {
			s.wakeDue(min(next, until))
			continue
		}
		if next > until || next == never {
			break
		}
		if s.nsteps == stepLog {
			s.flush()
		}
		if p != nil {
			if p.clean() {
				if p.nWatched != 0 {
					s.sleep(p)
					continue
				}
				if !s.skip(p, until) {
					break
				}
				continue
			}
			s.record(p.nextAt, p.seq, p.period, p.rank)
			s.now, s.cur = p.nextAt, p.seq
			s.stats.ParkedRuns++
			p.iterate()
		} else if f != nil {
			s.record(f.nextAt, f.seq, 0, 0)
			last := len(s.busy) - 1
			s.busy[fi] = s.busy[last]
			s.busy[last] = nil
			s.busy = s.busy[:last]
			s.now, s.cur = f.nextAt, f.seq
			s.executed++
			s.stats.Finishes++
			f.finish()
		} else {
			s.record(s.events[0].at, s.events[0].seq, 0, 0)
			ev := s.pop()
			s.now, s.cur = ev.at, ev.seq
			s.executed++
			s.stats.HeapEvents++
			ev.fn()
		}
		if s.postPending.Load() {
			s.drainPosted()
		}
	}
	// Advance the clock to the horizon even if the queue drained early so
	// that rate computations over [0, until] are well-defined.
	if s.now < until && until != never {
		s.now = until
	}
	s.cur = maxSeq
	if until != never {
		if s.nsteps == stepLog {
			s.flush()
		}
		s.record(s.now, maxSeq, 0, 0) // every poll up to now has run
	}
	s.catchUp()
}

// RunAll executes events until nothing is left to do.
func (s *Sim) RunAll() { s.Run(never) }

// --- Idle poll loops ------------------------------------------------------
//
// A PollLoop whose body returned idle does not schedule its next poll on
// the heap: it parks as a pending (nextAt, seq), merged with the heap by
// Run. When that poll comes first and is a no-op by the PollBody
// contract, a loop that declared its inputs goes dormant: it waits, out of
// every set Run walks, until an input it watches is produced into, it is
// poked, its deadline comes or its accounting is read, and then lands
// where its polls would have taken it. Any other loop's polls are no-ops
// while nothing has executed since it last polled, and skip accounts for
// a whole run of them in one step. See DESIGN.md, "Lazy idle polls".

// step is one entry of the Sim's log of what Run executed: a heap event, a
// busy loop's finish, a parked loop's body run (period and rank are that
// loop's, else 0), or the end of a Run (seq maxSeq: it goes after every
// poll at its instant). gap is Sim.seq when the step began. An idle poll
// that ran between two steps scheduled the next as the last thing before
// the later one, so that poll's seq is gap+1 of the later step: above
// every seq drawn before, below every one drawn by the step or after, which
// is why drawn seqs are even. The log is what lets a dormant loop land
// exactly, so Run keeps it only while a loop is dormant; it is emptied,
// once every dormant loop has landed, when it is full, when ranks are
// spaced out again and when the last dormant loop wakes.
type step struct {
	at     Time
	seq    uint64
	gap    uint64
	period Time
	rank   uint64
}

// stepLog is how many steps the log holds.
const stepLog = 512

// after reports whether step e ran after loop p's poll at e's instant,
// whose seq is k. Polls at one instant go in the order PollLoop.beforeLoop
// gives, whatever their seqs say.
func (e *step) after(p *PollLoop, k uint64) bool {
	if e.period == 0 {
		return e.seq > k
	}
	if e.period != p.period {
		return e.period < p.period
	}
	return e.rank > p.rank
}

// record appends the step about to run at (at, seq) to the log, if a
// loop is dormant. Run flushes a full log before it, which keeps record
// inlined.
//
//dhl:hotpath
func (s *Sim) record(at Time, seq uint64, period Time, rank uint64) {
	if len(s.dormant) == 0 {
		return
	}
	// Field by field: a composite literal is built on the stack and copied
	// in 16-byte moves, which stall on the 8-byte stores that built it.
	e := &s.steps[s.nsteps]
	e.at, e.seq, e.gap, e.period, e.rank = at, seq, s.seq, period, rank
	s.nsteps++
}

// flush lands every dormant loop and empties the log but for its last
// step, which every dormant loop is now after. A loop goes dormant between
// two steps, and flush runs between two steps or inside one, so while one
// is dormant there is a step to land behind; while none is, the log is
// empty.
func (s *Sim) flush() {
	if len(s.dormant) == 0 {
		return
	}
	for _, q := range s.dormant {
		s.land(q)
	}
	s.steps[0] = s.steps[s.nsteps-1]
	s.nsteps = 1
}

// stepAt returns the index of the first logged step at or after t.
func (s *Sim) stepAt(t Time) int {
	lo, hi := 0, s.nsteps
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.steps[m].at < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// gapAfter returns the seq of the poll that dormant loop p's poll at x,
// whose seq is k, schedules: one past the gap of the first step after it,
// or, if no step has run since, of the one about to run.
func (s *Sim) gapAfter(p *PollLoop, x Time, k uint64) uint64 {
	i := s.stepAt(x)
	for ; i < s.nsteps && s.steps[i].at == x; i++ {
		if s.steps[i].after(p, k) {
			break
		}
	}
	if i == s.nsteps {
		return s.seq + 1
	}
	return s.steps[i].gap + 1
}

// seqMatters reports whether a logged step at x is ordered against a poll
// there by the poll's seq: an event or a finish.
func (s *Sim) seqMatters(x Time) bool {
	for i := s.stepAt(x); i < s.nsteps && s.steps[i].at == x; i++ {
		if e := &s.steps[i]; e.period == 0 && e.seq != maxSeq {
			return true
		}
	}
	return false
}

// keyAt returns the seq of dormant loop p's poll at t, one of its poll
// instants at or after nextAt. Each poll's seq follows from the one before
// through gapAfter, which reads it only where an event or a finish shares
// its instant, so the walk starts at the last poll before t that nothing
// orders by seq, or at nextAt.
func (s *Sim) keyAt(p *PollLoop, t Time) uint64 {
	d := p.period
	x := p.nextAt
	if t > x {
		x = t - d
		for x > p.nextAt && s.seqMatters(x) {
			x -= d
		}
	}
	k := p.seq // p's seq at x if x is nextAt; else gapAfter does not read it
	for ; x < t; x += d {
		k = s.gapAfter(p, x, k)
	}
	return k
}

// account moves idle loop p to its poll at t, whose seq is k, accounting
// for the polls before it as if each had run.
func (s *Sim) account(p *PollLoop, t Time, k uint64) {
	n := (t - p.nextAt) / p.period
	if n == 0 {
		return
	}
	p.iterations += uint64(n)
	p.busy += t - p.nextAt
	s.stats.Skips++
	s.stats.PollsSkipped += uint64(n)
	p.nextAt, p.seq = t, k
}

// land moves dormant loop p to its first poll after the last logged step:
// where it is as the step runs, or, after a Run, at the first poll past
// its horizon. Near the end of time, where no poll lands behind the step,
// and where no step has run since p went dormant (a RunAll that found
// nothing else to do), it leaves p where it is.
func (s *Sim) land(p *PollLoop) {
	if s.nsteps == 0 {
		return
	}
	e := &s.steps[s.nsteps-1]
	t, d := p.nextAt, p.period
	if t > e.at || e.at > never-d {
		return
	}
	if t < e.at {
		t += (e.at - t + d - 1) / d * d
	}
	k := s.keyAt(p, t)
	if t == e.at && e.after(p, k) {
		k = s.gapAfter(p, t, k)
		t += d
	}
	s.account(p, t, k)
}

// wake brings dormant loop p back: it lands and parks, and runs its body at
// the poll it lands on.
func (s *Sim) wake(p *PollLoop) {
	s.land(p)
	s.dropDormant(p)
	p.wakeBy = p.nextAt
	s.toParked(p)
}

// wakeDue parks the dormant loops whose deadline poll comes first, at
// that poll, if it is at or before t, and works out wakeNext again.
// Everything Run executes from now on is at or after t, and the first of
// it may be one of these loops' body runs, which may wake any other: so
// every poll before the deadline ran before it, after the last logged
// step, and no loop with a later deadline lands yet.
func (s *Sim) wakeDue(t Time) {
	w := never
	for _, q := range s.dormant {
		w = min(w, q.wakeAt)
	}
	s.wakeNext = w
	if w > t {
		return
	}
	s.wakeNext = never
	for i := 0; i < len(s.dormant); {
		q := s.dormant[i]
		if q.wakeAt != w {
			s.wakeNext = min(s.wakeNext, q.wakeAt)
			i++
			continue
		}
		s.account(q, w, s.keyAt(q, w))
		s.dropDormant(q)
		s.toParked(q)
	}
}

// dropDormant takes p out of the dormant set.
func (s *Sim) dropDormant(p *PollLoop) {
	p.dormant = false
	i, last := p.slot, len(s.dormant)-1
	s.dormant[i] = s.dormant[last]
	s.dormant[i].slot = i
	s.dormant[last] = nil
	s.dormant = s.dormant[:last]
	if last == 0 {
		s.nsteps = 0
	}
}

// park books p's idle iteration, one period from now, and keeps its next
// poll in the parked set. It reports false for a stopped loop, which
// spends the iteration busy instead. A loop that was parked polled at its
// nextAt, so its place among the loops polling its instants stays what it
// was; any other joins them.
func (s *Sim) park(p *PollLoop) bool {
	if p.stopped {
		return false
	}
	p.busy += p.period
	s.seq += 2
	p.nextAt, p.seq, p.stamp = s.now+p.period, s.seq, s.executed
	// A deadline not after nextAt leaves the loop unclean until its body
	// runs again: wakeAt is then never read. One within a period, a port
	// reader's usual one, costs no division.
	p.wakeAt = never
	if p.nextAt < p.wakeBy && p.wakeBy <= never-p.period {
		if p.wakeBy-p.nextAt <= p.period {
			p.wakeAt = p.nextAt + p.period
		} else {
			p.wakeAt = p.nextAt + (p.wakeBy-p.nextAt+p.period-1)/p.period*p.period
		}
	}
	if !p.parked {
		s.join(p)
		s.toParked(p)
	}
	return true
}

// sleep makes p dormant: a parked loop that declared its inputs, whose
// pending poll comes before anything else and is a no-op. It is left at
// that poll, and every step from now on is logged.
func (s *Sim) sleep(p *PollLoop) {
	s.unpark(p)
	p.dormant, p.slot = true, len(s.dormant)
	s.dormant = append(s.dormant, p)
	s.wakeNext = min(s.wakeNext, p.wakeAt)
}

// toParked adds p to the parked set.
func (s *Sim) toParked(p *PollLoop) {
	p.parked, p.slot = true, len(s.parked)
	s.parked = append(s.parked, p)
}

// unpark takes p out of the parked set.
func (s *Sim) unpark(p *PollLoop) {
	i, last := p.slot, len(s.parked)-1
	s.parked[i] = s.parked[last]
	s.parked[i].slot = i
	s.parked[last] = nil
	s.parked = s.parked[:last]
	p.parked = false
}

// join gives p, idle after a busy iteration or its first, its rank among
// the idle loops that poll its instants: ahead of it those whose poll at
// this instant ran before the step running now (one that has parked is
// past it), behind it the rest. Idle polls at one instant keep that order
// from then on (see PollLoop.rank).
func (s *Sim) join(p *PollLoop) {
	p.phase = p.nextAt % p.period
	lo, hi := uint64(0), uint64(math.MaxUint64)
	for _, q := range s.parked {
		if q.period == p.period && q.phase == p.phase {
			if q.nextAt > s.now {
				lo = max(lo, q.rank)
			} else {
				hi = min(hi, q.rank)
			}
		}
	}
	for _, q := range s.dormant {
		if q.period == p.period && q.phase == p.phase {
			if q.nextAt > s.now || s.keyAt(q, s.now) < s.cur {
				lo = max(lo, q.rank)
			} else {
				hi = min(hi, q.rank)
			}
		}
	}
	if hi-lo < 2 {
		s.respace(p, lo)
		return
	}
	p.rank = lo + (hi-lo)/2
}

// respace spaces out the ranks of the group p joins, p behind the loop of
// rank lo, once the log, which holds ranks, is flushed.
func (s *Sim) respace(p *PollLoop, lo uint64) {
	s.flush()
	group := s.group[:0]
	for _, set := range [2][]*PollLoop{s.parked, s.dormant} {
		for _, q := range set {
			if q.period == p.period && q.phase == p.phase {
				group = append(group, q)
			}
		}
	}
	slices.SortFunc(group, func(a, b *PollLoop) int { return cmp.Compare(a.rank, b.rank) })
	i := 0
	for i < len(group) && group[i].rank <= lo {
		i++
	}
	group = slices.Insert(group, i, p)
	space := math.MaxUint64 / uint64(len(group)+1)
	for i, q := range group {
		q.rank = uint64(i+1) * space
	}
	clear(group)
}

// firstBusy returns the index of the busy loop whose finish is due first;
// there is one.
func (s *Sim) firstBusy() int {
	first := 0
	for i := 1; i < len(s.busy); i++ {
		if s.busy[i].beforeFinish(s.busy[first]) {
			first = i
		}
	}
	return first
}

// firstParked returns the parked loop whose poll is due first, or nil.
func (s *Sim) firstParked() *PollLoop {
	var first *PollLoop
	for _, q := range s.parked {
		if first == nil || q.beforeLoop(first) {
			first = q
		}
	}
	return first
}

// skip moves clean parked loop p, the earliest pending item of the whole
// simulation and a loop that declared no inputs, forward over every poll
// that cannot see anything new, and accounts for them as if each had run.
// It reports false when nothing bounds the skip: nothing will ever happen
// again.
//
// p stops at its first poll instant at or after the horizon: the earliest
// time at which anything else may execute. Its last skipped poll ran after
// every step so far, so its seq is one past Sim.seq; where it lands on a
// peer's instant, the two go in rank order. See DESIGN.md, "Lazy idle
// polls".
func (s *Sim) skip(p *PollLoop, until Time) bool {
	horizon := min(p.wakeBy, s.wakeNext)
	if until < never {
		horizon = min(horizon, until+1)
	}
	if len(s.events) > 0 {
		horizon = min(horizon, s.events[0].at)
	}
	for _, q := range s.busy {
		horizon = min(horizon, q.nextAt)
	}
	d := p.period
	for _, q := range s.parked {
		if horizon-p.nextAt <= d {
			break
		}
		if q != p {
			horizon = min(horizon, q.nextReal())
		}
	}
	// Something acts by p's next poll — the usual case — and p moves one
	// period without a division.
	k := Time(1)
	if horizon-p.nextAt > d {
		if horizon > never-d {
			return false
		}
		k = (horizon - p.nextAt + d - 1) / d
	}
	s.account(p, p.nextAt+k*d, s.seq+1)
	return true
}
