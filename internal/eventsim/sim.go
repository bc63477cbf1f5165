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
	seq     uint64
	cur     uint64  // seq of the step being run; maxSeq outside Run
	events  []event // binary min-heap on (at, seq)
	stats   Stats
	polling *PollLoop // the loop whose body is running, if any (WakeBy)

	// Poll loops out of the heap (see PollLoop): each idle one parked with
	// its next poll as its pending (nextAt, seq), each busy one with its
	// iteration's finish, the pair the heap would have held; Run merges
	// both sets with the heap. NewPollLoop keeps room in each for every
	// loop. executed counts everything that may have changed what a
	// poll body sees: a parked loop that last polled at the current value
	// has nothing new to look at.
	parked   []*PollLoop
	busy     []*PollLoop
	executed uint64

	// Quiet stretches (see hush). A parked loop short of deferTo, when that
	// is not zero, is at its first poll at or after it, and its nextAt,
	// iterations and busy time have yet to follow; its seq already is that
	// poll's. The last quiet pass that drew seqs drew (hushFrom, hushTo].
	deferTo  Time
	hushFrom uint64
	hushTo   uint64

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
	loops      int
	parkedBack [inlineSlots]*PollLoop
	busyBack   [inlineSlots]*PollLoop
	lazyBack   [inlineSlots]Lazy
}

// maxSeq is the seq Running reports outside Run: every pending event at
// the current time goes before it.
const maxSeq = math.MaxUint64

// New creates an empty simulation with the clock at zero.
func New() *Sim {
	s := &Sim{cur: maxSeq}
	s.parked, s.busy, s.lazy = s.parkedBack[:0], s.busyBack[:0], s.lazyBack[:0]
	return s
}

// addLoop keeps room for one more poll loop in the parked and busy sets.
func (s *Sim) addLoop() {
	s.loops++
	s.parked = slices.Grow(s.parked, s.loops-len(s.parked))
	s.busy = slices.Grow(s.busy, s.loops-len(s.busy))
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
	// Skips counts the steps that accounted for a run of a parked loop's
	// no-op polls at once.
	Skips uint64
	// PollsSkipped counts idle polls accounted for (time, core
	// utilization, PollLoop.Iterations) without running the body, by
	// skips and by quiet Runs.
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
	s.landAll()
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
	s.seq++
	s.push(t, s.seq, fn)
}

// DrawSeq draws the place among events at one instant that an event
// scheduled now would take, for something that is not an event but falls
// due in that place: a frame on the wire, which a port takes when the
// step being run (Running) goes after it.
func (s *Sim) DrawSeq() uint64 {
	s.seq++
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
		// whichever of the two goes first.
		f, fi := (*PollLoop)(nil), -1
		if len(s.busy) != 0 {
			fi = s.firstBusy()
			if f = s.busy[fi]; len(s.events) != 0 && !f.beforeEvent(&s.events[0]) {
				f = nil
			}
		}
		if p := s.firstParked(); p != nil && p.beforeNext(f, s.events) {
			if p.nextAt > until {
				break
			}
			if s.quiet(until) {
				s.hush(until)
				break
			}
			if s.deferTo != 0 {
				s.landAll()
				continue
			}
			if s.settle(p); p.clean() {
				if !s.skip(p, until) {
					break
				}
				continue
			}
			s.now, s.cur = p.nextAt, p.seq
			s.stats.ParkedRuns++
			p.iterate()
		} else if f != nil {
			if f.nextAt > until {
				break
			}
			if s.deferTo != 0 {
				s.landAll()
			}
			last := len(s.busy) - 1
			s.busy[fi] = s.busy[last]
			s.busy[last] = nil
			s.busy = s.busy[:last]
			s.now, s.cur = f.nextAt, f.seq
			s.executed++
			s.stats.Finishes++
			f.finish()
		} else if len(s.events) > 0 && s.events[0].at <= until {
			if s.deferTo != 0 {
				s.landAll()
			}
			ev := s.pop()
			s.now, s.cur = ev.at, ev.seq
			s.executed++
			s.stats.HeapEvents++
			ev.fn()
		} else {
			break
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
	s.catchUp()
}

// RunAll executes events until nothing is left to do.
func (s *Sim) RunAll() { s.Run(never) }

// --- Idle poll loops ------------------------------------------------------
//
// A PollLoop whose body returned idle does not schedule its next poll on
// the heap: it parks here as a pending (nextAt, seq) pair, merged with the
// heap by Run. While nothing has executed since it last polled, its polls
// are no-ops by the PollBody contract, and skip accounts for a whole run
// of them in one step.

// park books p's idle iteration, one period from now, and keeps its next
// poll in the parked set. It reports false for a stopped loop, which spends
// the iteration busy instead. A loop that was parked polled at its nextAt,
// so its phase stays what it was.
func (s *Sim) park(p *PollLoop) bool {
	if p.stopped {
		return false
	}
	if !p.parked {
		s.parked = append(s.parked, p)
		p.parked = true
		p.phase = -1
	}
	p.busy += p.period
	s.seq++
	p.nextAt, p.seq, p.stamp = s.now+p.period, s.seq, s.executed
	for i, in := range p.watched[:p.nWatched] {
		p.seen[i] = in.Produced()
	}
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
	return true
}

func (s *Sim) unpark(p *PollLoop) {
	for i, q := range s.parked {
		if q == p {
			last := len(s.parked) - 1
			s.parked[i] = s.parked[last]
			s.parked[last] = nil
			s.parked = s.parked[:last]
			break
		}
	}
	p.parked = false
}

// settle carries the stamp of parked loop q, if it declared its inputs,
// forward to the current count, unless something was produced into one of
// them (or the loop was poked): what executed since the loop last looked
// is then none of its business, and clean stays the same comparison for
// both kinds of loop. Whatever produces into an input has executed — also
// code between two Run calls, which Run's entry counts — and the counts
// only grow, so looking when the count has moved, and only at a loop whose
// cleanness is about to be read (the first parked poll, the peers a skip
// scans, the loops a quiet step finds due), misses nothing; a loop left
// behind runs its body at its next poll.
func (s *Sim) settle(q *PollLoop) {
	if q.stamp != s.executed && q.nWatched != 0 && q.unproduced() {
		q.stamp = s.executed
	}
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
// simulation, forward over every poll that cannot see anything new, and
// accounts for them as if each had run. It reports false when nothing
// bounds the skip: nothing will ever happen again.
//
// p stops at its first poll instant at or after the horizon: the earliest
// time at which anything else executes. Two ordering rules keep the
// execution order at every instant what it would be had every poll run:
// see DESIGN.md, "Lazy idle polls".
func (s *Sim) skip(p *PollLoop, until Time) bool {
	horizon := p.wakeBy
	if until < never {
		horizon = min(horizon, until+1)
	}
	if len(s.events) > 0 {
		horizon = min(horizon, s.events[0].at)
	}
	for _, q := range s.busy {
		horizon = min(horizon, q.nextAt)
	}
	// A peer polling the same instants keeps its place in the order there
	// from poll to poll: p may catch up with one that is ahead, not pass it.
	land, d := never, p.period
	for _, q := range s.parked {
		if horizon-p.nextAt <= d {
			break
		}
		if q == p {
			continue
		}
		s.settle(q)
		horizon = min(horizon, q.nextReal())
		if q.period == d && q.nextAt > p.nextAt && q.inPhase() == p.inPhase() {
			land = min(land, q.nextAt)
		}
	}
	k := Time(1)
	if horizon-p.nextAt <= d {
		// Something acts by p's next poll — the usual case for a loop that
		// sleeps through what its peers act on: p moves one period, which
		// no peer ahead of it on the same instants can be short of, and no
		// division is paid.
		land = p.nextAt + d
	} else {
		k = 0 // the polls to land, once known
		if horizon <= never-d {
			if n := (horizon - p.nextAt + d - 1) / d; p.nextAt+n*d <= land {
				land, k = p.nextAt+n*d, n
			}
		}
		if land == never {
			return false
		}
		if k == 0 { // on a same-phase peer ahead, before the horizon
			k = (land - p.nextAt) / d
		}
	}
	p.iterations += uint64(k)
	p.busy += k * d
	s.stats.Skips++
	s.stats.PollsSkipped += uint64(k)
	s.seq++
	p.nextAt, p.seq = land, s.seq
	return true
}

// --- Quiet stretches ------------------------------------------------------
//
// When nothing is due at or before until, skip would move every parked loop
// that is due to its first poll after until, one fresh seq each. hush draws
// those seqs in the order the skips would, but leaves where the loops land
// (and the divisions that says) for whoever needs it: Sim.deferTo becomes
// until+1, and a parked loop short of it lands later, on its first poll at
// or after it, with the same accounting. See DESIGN.md, "Lazy idle polls".

// quiet reports whether nothing is due at or before until: no heap event
// or busy loop's finish, and every parked loop due by then clean with its
// deadline after until. A loop short of deferTo counts as due (where it
// lands is not looked at); its deadline and stamp are its own either way.
// Work posted since Run last drained the mailbox waits for the next Run,
// as it would behind skips.
func (s *Sim) quiet(until Time) bool {
	if len(s.events) > 0 && s.events[0].at <= until {
		return false
	}
	return s.loopsQuiet(until)
}

// loopsQuiet is the rest of quiet, once no heap event is due by until, out
// of line so that the heap test inlines into Run: no busy loop finishes by
// until, and every parked loop due by then is clean, with its deadline
// after until.
func (s *Sim) loopsQuiet(until Time) bool {
	for _, q := range s.busy {
		if q.nextAt <= until {
			return false
		}
	}
	for _, q := range s.parked {
		if q.nextAt > until {
			continue
		}
		s.settle(q)
		if q.stamp != s.executed || q.wakeBy <= until || until >= never-q.period {
			return false
		}
	}
	return true
}

// hush ends a quiet Run: it gives every parked loop due by until the seq
// skip would leave it with and defers its landing to until+1. A horizon
// already passed keeps the later deferTo, which every loop due by until is
// short of.
//
// The skips would move a same-phase peer that is ahead first, then go in
// seq order (rule 2), and draw above every pending event. If the last pass
// drew the seqs of all the loops due now and nothing has drawn one since,
// they already are in that order and above every pending event, and hush
// draws nothing.
func (s *Sim) hush(until Time) {
	if !s.stillHushed(until) {
		s.redraw(until)
	}
	s.deferTo = max(s.deferTo, until+1)
}

// stillHushed reports whether the last pass that drew seqs drew those of
// every loop due by until, and nothing has drawn one since.
func (s *Sim) stillHushed(until Time) bool {
	if s.seq != s.hushTo {
		return false
	}
	for _, q := range s.parked {
		if q.nextAt <= until && q.seq <= s.hushFrom {
			return false
		}
	}
	return true
}

// redraw lands every loop and draws a fresh seq for each loop due by
// until: the one furthest ahead first, equal instants in seq order.
// Across loops that never share an instant the order does not matter, so
// one order serves every group of same-phase peers at once.
func (s *Sim) redraw(until Time) {
	s.landAll()
	s.hushFrom = s.seq
	for {
		var next *PollLoop
		for _, q := range s.parked {
			if q.nextAt <= until && q.seq <= s.hushFrom &&
				(next == nil || q.nextAt > next.nextAt || q.nextAt == next.nextAt && q.seq < next.seq) {
				next = q
			}
		}
		if next == nil {
			break
		}
		s.seq++
		next.seq = s.seq
	}
	s.hushTo = s.seq
}

// land moves parked loop p, short of deferTo, to its first poll at or after
// it and accounts for the polls it passes, as skip does.
func (s *Sim) land(p *PollLoop) {
	d := p.period
	k := (s.deferTo - p.nextAt + d - 1) / d
	p.iterations += uint64(k)
	p.busy += k * d
	p.nextAt += k * d
	s.stats.PollsSkipped += uint64(k)
}

// landAll lands every parked loop and ends the deferral.
func (s *Sim) landAll() {
	if s.deferTo == 0 {
		return
	}
	for _, q := range s.parked {
		if q.nextAt < s.deferTo {
			s.land(q)
		}
	}
	s.deferTo = 0
}
