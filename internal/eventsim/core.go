package eventsim

import "fmt"

// Core models one simulated CPU hardware thread: a DPDK lcore, which runs
// the one poll loop launched on it (NewPollLoop) run-to-completion and
// nothing else.
//
// Work is accounted in cycles at the core's clock frequency. The core keeps
// no books of its own: its busy time and the instant it is next free are
// its loop's.
type Core struct {
	id   int
	node int // NUMA node
	hz   float64
	loop *PollLoop // the one loop that runs on the core (NewPollLoop)
}

// NewCore creates a simulated core on NUMA node "node" clocked at hz Hz.
// The core's time is kept by its loop, on the loop's Sim.
func NewCore(_ *Sim, id, node int, hz float64) *Core {
	return &Core{id: id, node: node, hz: hz}
}

// CycleTime converts a cycle count into virtual time at this core's clock.
func (c *Core) CycleTime(cycles float64) Time {
	if cycles <= 0 {
		return 0
	}
	return Time(cycles * 1e12 / c.hz)
}

// FreeAt reports when the core finishes the iteration or idle poll its loop
// is spending. Read after Run(until) returns, that includes the idle polls
// up to until.
//
//dhl:allow unreferenced the poll-loop equivalence oracle compares it between engines
func (c *Core) FreeAt() Time {
	c.loop.land()
	return c.loop.nextAt
}

// Utilization reports the fraction of [0, horizon] this core spent busy,
// idle polls included as FreeAt has them.
//
//dhl:allow unreferenced the poll-loop equivalence oracle compares it between engines
func (c *Core) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(c.busyTime()) / float64(horizon)
}

// busyTime is the core's busy time as Utilization reads it.
func (c *Core) busyTime() Time {
	c.loop.land()
	return c.loop.busy
}

// String identifies the core for diagnostics.
func (c *Core) String() string {
	return fmt.Sprintf("core%d(node%d @%.2fGHz)", c.id, c.node, c.hz/1e9)
}

// PollBody is one poll-loop iteration. It returns the cycles the iteration
// consumed and an optional commit callback that runs when the core has
// actually spent those cycles — downstream hand-offs (ring enqueues, NIC
// TX, DMA posts) belong in commit so that pipeline latency includes the
// stage's processing time. Inputs may be consumed at iteration start
// (matching when rx_burst/ring dequeue returns).
//
// The idle contract. Returning (0, nil) asserts: this iteration found
// nothing to do, changed nothing a poll body reads to decide whether it is
// idle, and would return the same again until some other event executes —
// or until a deadline the body declared with PollLoop.WakeBy during this
// iteration, itself or through something it called (Sim.WakeBy: a port's
// RxBurst that found its queue empty declares when the next frame is due).
// The simulator relies on it: it does not run the body of an idle loop
// again until something has executed or the deadline has come, and
// accounts for the polls in between arithmetically. A body whose idle
// result can expire with time alone (a timeout on state it holds) must
// say when; a body that turns busy by counting its own idle calls breaks
// the contract.
//
// For a loop that declared the inputs it reads (PollLoop.Watch) the
// assertion is narrower and the simulator holds it to that: the body would
// return the same until one of those inputs is produced into, the loop is
// poked (PollLoop.Poke), or a WakeBy deadline comes. What else executes in
// the meantime does not run it.
type PollBody func() (cycles float64, commit func())

// Input is something a poll body reads to decide whether it is idle, as
// PollLoop.Watch takes it: Produced counts everything ever put into it and
// only grows. ring.Ring's producer tail is one, and netdev.Port's count of
// the frames its generator put on the wire another.
type Input interface{ Produced() uint64 }

// maxWatched is how many inputs a loop declares at most: the two queues
// Figure 7's per-port core polls, its NIC and its NF's OBQ. They live in
// the PollLoop, so that Watch allocates nothing.
const maxWatched = 2

// PollLoop runs a poll-mode body on its core forever (until the simulation
// horizon). If the body reports 0 cycles the loop charges idleCycles
// instead, modelling the cost of a wasted poll. This mirrors a DPDK
// while(1) { rx_burst(); ... } lcore: the core runs the loop and nothing
// else, so each iteration starts when the last one ends.
//
// A loop runs one chain of iterations. Its first iteration is an event
// (Start); from then on its next poll or its iteration's finish is kept in
// the Sim's parked or busy set, never on the heap.
//
// Every poll is accounted for — virtual time, the core's busy time,
// Iterations — but the body only runs when it could see something new
// (see PollBody). Iterations, Core.FreeAt, Core.Utilization and
// Sim.Stats read after Run(until) returns include every idle poll up
// to until; after a Run with nothing due they are what bring that
// accounting up to date, so reading them costs a division the Run did not.
type PollLoop struct {
	sim        *Sim
	core       *Core
	body       PollBody
	idleCycles float64
	period     Time // idleCycles on core: the spacing of idle polls
	started    bool
	stopped    bool
	iterations uint64
	busy       Time // the core's busy time, idle polls included

	// pendingCommit is the commit of the iteration the core is spending.
	pendingCommit func()

	// After an idle iteration the loop is parked in its Sim, and (nextAt,
	// seq) is the pending poll; after a busy one it is busy there, and
	// (nextAt, seq) is the iteration's finish. Either way the pair is what
	// the heap would have held, and nextAt is when the core is next free.
	parked bool
	nextAt Time
	seq    uint64 // order among events at nextAt
	stamp  uint64 // Sim.executed when the body last ran, or was last found unconcerned
	wakeBy Time   // the last iteration's declared deadline, or never
	// While parked: nextAt modulo the period (-1 until a skip first asks,
	// see inPhase), and wakeAt, the first poll at or after wakeBy (never
	// without a deadline), set by Sim.park. Every skip and landing keeps
	// both, so the peers a skip scans cost it no division.
	phase  Time
	wakeAt Time

	// What the loop declared with Watch, each input's count as read when
	// the body last returned idle (Sim.park), and whether the loop was
	// poked since. An idle body changed nothing it reads, so that is the
	// count it saw; a busy iteration reads none, as it parks no loop.
	nWatched int
	poked    bool
	watched  [maxWatched]Input
	seen     [maxWatched]uint64
}

// NewPollLoop creates (but does not start) the poll loop of core, and keeps
// room for it in the Sim's parked and busy sets. A core runs one loop, and
// an idle poll takes time: NewPollLoop panics on a core that has a loop,
// and on an idle cost that the core's clock turns into no time.
func NewPollLoop(sim *Sim, core *Core, idleCycles float64, body PollBody) *PollLoop {
	if core.loop != nil {
		panic("eventsim: NewPollLoop: the core already runs a loop")
	}
	period := core.CycleTime(idleCycles)
	if period <= 0 {
		panic("eventsim: NewPollLoop: an idle poll that takes no time")
	}
	sim.addLoop()
	core.loop = &PollLoop{sim: sim, core: core, body: body, idleCycles: idleCycles, period: period}
	return core.loop
}

// Start schedules the first iteration at the current time. A loop runs one
// chain of iterations: Start on a started loop does nothing.
func (p *PollLoop) Start() {
	if p.started {
		return
	}
	p.started = true
	p.sim.After(0, p.iterate)
}

// Stop halts the loop after the current iteration.
func (p *PollLoop) Stop() {
	p.stopped = true
	if p.parked {
		p.land()
		p.sim.unpark(p)
	}
}

// Iterations reports how many poll iterations have run; read after
// Run(until) returns, every idle poll up to until.
//
//dhl:allow unreferenced the poll-loop equivalence oracle compares it between engines
func (p *PollLoop) Iterations() uint64 {
	p.land()
	return p.iterations
}

// land brings a loop a quiet Run left behind to where it is (Sim.hush).
func (p *PollLoop) land() {
	if p.parked && p.nextAt < p.sim.deferTo {
		p.sim.land(p)
	}
}

// Watch declares an input the body reads: from now on an idle result
// stands until in (or an input declared before it) has been produced into,
// the loop is poked, or a WakeBy deadline comes — see PollBody. The loop
// reads the input's own count, so whoever produces into it, inside Run or
// between two Run calls, needs to know nothing about the loop; a port's
// RxBurst that finds nothing declares when its next frame on the wire falls
// due. A loop that never calls Watch is woken by anything that executes. A
// loop watches at most two inputs, kept in the loop: Watch allocates
// nothing, and panics on a nil input and on a third.
func (p *PollLoop) Watch(in Input) {
	if in == nil || p.nWatched == maxWatched {
		panic("eventsim: PollLoop.Watch: a loop watches one or two inputs")
	}
	p.watched[p.nWatched] = in
	p.nWatched++
	p.poked = true // its last park recorded nothing of it
}

// Poke ends the loop's idle result: the body runs at the next poll. It is
// for the dependency a loop with declared inputs has besides them — state
// the body reads that somebody else changed without producing into
// anything, such as a timeout the body had turned into a WakeBy deadline.
// Like producing into an input it is something only code that executes
// does — an event, a commit, a busy iteration, code between two Run calls
// — after which Sim.settle looks again.
func (p *PollLoop) Poke() { p.poked = true }

// WakeBy is called by the body during an iteration it is about to report
// idle, to declare that the idle result expires by itself at time t: the
// body runs again at the first poll at or after t even if nothing else
// has executed. Several calls in one iteration keep the earliest; a time
// that is not in the future means "poll again next period". Code the body
// calls that does not know the loop declares through Sim.WakeBy.
//
//dhl:hotpath
func (p *PollLoop) WakeBy(t Time) {
	if t < p.wakeBy {
		p.wakeBy = t
	}
}

//dhl:hotpath
func (p *PollLoop) iterate() {
	if p.stopped {
		return
	}
	p.iterations++
	p.wakeBy = never
	p.poked = false
	s := p.sim
	s.polling = p
	cycles, commit := p.body()
	s.polling = nil
	if cycles <= 0 {
		if commit == nil {
			s.stats.IdleRuns++
			if s.park(p) {
				return
			}
		}
		cycles = p.idleCycles
	}
	if p.parked {
		s.unpark(p)
	}
	s.executed++
	p.pendingCommit = commit
	// The iteration starts now: the core runs nothing but its loop. The
	// finish takes the seq an event booked for it would have drawn.
	d := p.core.CycleTime(cycles)
	p.busy += d
	p.nextAt = s.now + d
	s.seq++
	p.seq = s.seq
	s.busy = append(s.busy, p)
}

// finish runs the iteration's commit callback (after the core has spent
// its cycles) and starts the next poll.
func (p *PollLoop) finish() {
	if c := p.pendingCommit; c != nil {
		p.pendingCommit = nil
		c()
	}
	p.iterate()
}

// clean reports whether parked loop p's next poll is a no-op: its stamp is
// current and its deadline is not due. For a loop that declared nothing the
// stamp is current while nothing at all has executed since its body last
// ran; a declared loop's stamp is carried forward by Sim.settle for as long
// as nothing has been produced into what it watches. Either way this is one
// inlined comparison, which every core of a testbed pays at every event.
func (p *PollLoop) clean() bool {
	return p.stamp == p.sim.executed && p.nextAt < p.wakeBy
}

// unproduced reports whether a parked loop with declared inputs may keep
// its idle result: it has not been poked, and every input still reads the
// count recorded when the loop parked.
func (p *PollLoop) unproduced() bool {
	if p.poked || p.watched[0].Produced() != p.seen[0] {
		return false
	}
	return p.nWatched == 1 || p.watched[1].Produced() == p.seen[1]
}

// nextReal reports the instant at which parked loop p next runs its body
// if nothing else executes first: its next poll unless that is a no-op,
// else the first poll at or after its deadline.
func (p *PollLoop) nextReal() Time {
	if !p.clean() {
		return p.nextAt
	}
	return p.wakeAt
}

// inPhase reports parked loop p's phase, working it out the first time it
// is asked for after p parked: most parks come after a busy iteration and
// are over before any skip compares phases.
func (p *PollLoop) inPhase() Time {
	if p.phase < 0 {
		p.phase = p.nextAt % p.period
	}
	return p.phase
}

// beforeLoop orders two parked loops' pending polls. At equal instants the
// poll whose predecessor ran earlier — the longer period — goes first, as
// its seq would have been drawn earlier; a skip draws seq ahead of that
// time, so periods are compared before seq.
func (p *PollLoop) beforeLoop(q *PollLoop) bool {
	if p.nextAt != q.nextAt {
		return p.nextAt < q.nextAt
	}
	if p.period != q.period {
		return p.period > q.period
	}
	return p.seq < q.seq
}

func (p *PollLoop) beforeEvent(e *event) bool {
	return p.nextAt < e.at || p.nextAt == e.at && p.seq < e.seq
}

// beforeFinish orders p's pending poll or finish before busy loop f's
// finish as the heap orders two events.
func (p *PollLoop) beforeFinish(f *PollLoop) bool {
	return p.nextAt < f.nextAt || p.nextAt == f.nextAt && p.seq < f.seq
}

// beforeNext reports whether parked loop p's poll goes before busy loop f's
// finish, or, with f nil, before the earliest event of heap h.
func (p *PollLoop) beforeNext(f *PollLoop, h []event) bool {
	if f != nil {
		return p.beforeFinish(f)
	}
	return len(h) == 0 || p.beforeEvent(&h[0])
}
