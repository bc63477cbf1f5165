// Package tuner closes the loop the paper leaves open: DHL fixes the DMA
// batch size at 6 KB because Figure 4 shows that is optimal at 42 Gbps
// saturation, but a production system spends most of its life off-peak,
// where a smaller batch and a shorter flush timeout buy large p99 wins
// for free. The Tuner is a controller that samples the telemetry layer's
// per-batch trace spans and per-node IBQ pressure in fixed windows and
// retunes batch size and flush timeout per accelerator (plus the poll
// cores' dequeue burst per node) through the same live-management
// surface an operator uses — SetAccBatchBytes, SetAccFlushTimeout,
// SetBurst — so everything it does is observable and reversible from the
// control plane.
//
// # Discipline
//
// The Tuner runs on the simulation's event loop (an eventsim.Timer), the
// same mailbox discipline as the control plane: its decisions interleave
// with the data path at event granularity, never mid-batch, so it needs
// no locks against the transfer cores. Its sampling tick is
// allocation-free in steady state — spans are copied into a preallocated
// buffer (SpanRing.CopySince) and per-accelerator state lives in a map
// keyed by acc_id; the Tuner allocates only at reconfiguration
// boundaries (first sight of a new accelerator, a burst resize), never
// per window, which is what lets the 0 allocs/op gates hold with the
// tuner armed.
//
// # Control law
//
// Per 200 µs window and per accelerator the Tuner computes the fill ratio
// (average staged batch bytes / current target) and reads the node's IBQ
// pressure (the high-water latch plus the refusal delta). Pressure or a
// fill at or above 0.85 is a grow signal; no pressure and a fill at or
// below 0.30 is a shrink signal. A signal must persist for two
// consecutive windows before the Tuner acts (the guard band that keeps
// bursty traffic from flapping the configuration), and each action is a
// doubling or halving clamped to fixed bounds — multiplicative so the
// controller converges in a handful of windows from either extreme,
// bounded so it can never leave its envelope: batch target from
// core.MinBatchBytes to the runtime's BatchBytes at New, flush deadline
// from 4 µs to the runtime's FlushTimeout at New, burst from 16 to 256.
package tuner

import (
	"fmt"
	"sort"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// Actuator is the live-management surface the Tuner reads and acts
// through; *core.Runtime implements it. Factoring the dependency as an
// interface keeps the controller testable against a fake and makes the
// contract explicit: the Tuner only ever touches knobs an operator could
// touch by hand.
type Actuator interface {
	Nodes() int
	BatchBytes() int
	FlushTimeout() eventsim.Time
	AccInfo(core.AccID) (core.AccInfo, error)
	SetAccBatchBytes(core.AccID, int) error
	SetAccFlushTimeout(core.AccID, eventsim.Time) error
	Burst(node int) int
	SetBurst(node, burst int) error
	IBQPressure(node int) (rejected uint64, hot bool, qlen, qcap int)
}

var _ Actuator = (*core.Runtime)(nil)

// The control loop's constants.
const (
	// interval is the sampling window: roughly ten 6 KB round trips, long
	// enough to average out per-batch noise and short enough to track a
	// load swing within a few milliseconds.
	interval = 200 * eventsim.Microsecond
	// hysteresis is how many consecutive windows a grow/shrink signal
	// must persist before the Tuner acts.
	hysteresis = 2
	// highFill and lowFill are the fill-ratio guard bands: average batch
	// bytes / target at or above highFill is a grow signal, at or below
	// lowFill a shrink signal, and the dead zone between them holds the
	// current configuration.
	highFill, lowFill = 0.85, 0.30
	// minFlushTimeout is the per-acc flush deadline's floor; the batch
	// target's is core.MinBatchBytes.
	minFlushTimeout = 4 * eventsim.Microsecond
	// minBurst and maxBurst bound the per-node poll burst.
	minBurst, maxBurst = 16, 256
)

// accCtl is the controller's per-accelerator state: the current targets
// it has applied and the streak counters implementing hysteresis.
// Allocated once at first sight of the accelerator's spans.
type accCtl struct {
	acc    core.AccID
	name   string
	node   int
	target int           // current batch-bytes target
	flush  eventsim.Time // current flush deadline

	upStreak, downStreak int

	// Per-window aggregates, reset at every tick.
	winBatches, winBytes, winPackets uint64
	winLatNs                         uint64

	// lastFill and lastLatNs freeze the previous window's signals for
	// Status and the gauges.
	lastFill  float64
	lastLatNs float64
}

// nodeCtl is the controller's per-node state: the burst it has applied,
// the baseline to restore at Disable, and the IBQ refusal cursor.
type nodeCtl struct {
	baseBurst    int
	burst        int
	prevRejected uint64
	winRejects   uint64
	hot          bool

	upStreak, downStreak int

	winBatches, winBytes uint64
}

// Tuner is the closed-loop batching controller. Construct with New;
// Enable arms the sampling timer. All methods must run on the event-loop
// goroutine (the control plane's dispatch already does), the same
// single-writer discipline the rest of the live-management surface
// assumes.
type Tuner struct {
	sim *eventsim.Sim
	act Actuator
	tel *telemetry.Registry

	// maxBatch and maxFlush are the ceilings of the per-acc batch target
	// and flush deadline: the runtime's defaults when New ran, so the
	// Tuner only ever moves down from the operator's fixed point.
	maxBatch int
	maxFlush eventsim.Time

	timer   *eventsim.Timer
	enabled bool

	accs    map[core.AccID]*accCtl
	nodes   []nodeCtl
	spanBuf []telemetry.Span
	lastSeq uint64

	windows     uint64
	growDecs    uint64
	shrinkDecs  uint64
	gaugesArmed bool
}

// New builds a Tuner over the runtime's actuation surface and telemetry
// registry. tel must be the registry the runtime records into (the Tuner
// reads its span ring).
func New(sim *eventsim.Sim, act Actuator, tel *telemetry.Registry) (*Tuner, error) {
	if sim == nil || act == nil {
		return nil, fmt.Errorf("tuner: sim and actuator are required")
	}
	if tel == nil {
		return nil, fmt.Errorf("tuner: telemetry registry is required (the tuner's signals are the span ring and stage histograms)")
	}
	t := &Tuner{
		sim:      sim,
		act:      act,
		tel:      tel,
		maxBatch: act.BatchBytes(),
		maxFlush: act.FlushTimeout(),
		accs:     make(map[core.AccID]*accCtl),
		nodes:    make([]nodeCtl, act.Nodes()),
		spanBuf:  make([]telemetry.Span, tel.Spans.Cap()),
	}
	t.timer = sim.NewTimer(t.tick)
	return t, nil
}

// Enable arms the controller: it snapshots the per-node baseline bursts
// (restored at Disable), registers the dhl_tuner_* gauges on first use,
// and starts the sampling timer. Idempotent while enabled.
func (t *Tuner) Enable() error {
	if t.enabled {
		return nil
	}
	for node := range t.nodes {
		b := t.act.Burst(node)
		t.nodes[node].baseBurst = b
		t.nodes[node].burst = b
		rejected, _, _, _ := t.act.IBQPressure(node)
		t.nodes[node].prevRejected = rejected
	}
	// Start the span cursor at "now" so the first window measures fresh
	// traffic, not whatever history the ring retains.
	_, t.lastSeq = t.tel.Spans.CopySince(^uint64(0), t.spanBuf)
	t.armGauges()
	t.enabled = true
	t.timer.Reset(interval)
	return nil
}

// Disable stops the controller and rolls its interventions back: every
// per-acc override is cleared (back to the global BatchBytes and
// FlushTimeout) and every node's burst is restored to its Enable-time
// baseline. The system returns to exactly the configuration an operator
// would see with the tuner never armed. Idempotent while disabled.
func (t *Tuner) Disable() error {
	if !t.enabled {
		return nil
	}
	t.enabled = false
	t.timer.Stop()
	for acc, ctl := range t.accs {
		// An accelerator evicted since we last saw it makes these fail
		// with ErrUnknownAcc; its overrides died with it.
		if err := t.act.SetAccBatchBytes(acc, 0); err != nil {
			continue
		}
		if err := t.act.SetAccFlushTimeout(acc, 0); err != nil {
			continue
		}
		ctl.target = t.maxBatch
		ctl.flush = t.maxFlush
		ctl.upStreak, ctl.downStreak = 0, 0
	}
	for node := range t.nodes {
		n := &t.nodes[node]
		if n.baseBurst > 0 && n.burst != n.baseBurst {
			if err := t.act.SetBurst(node, n.baseBurst); err == nil {
				n.burst = n.baseBurst
			}
		}
	}
	return nil
}

// tick is one control window: sample, decide, actuate, re-arm.
// Allocation-free in steady state — see the package comment.
func (t *Tuner) tick() {
	if !t.enabled {
		return
	}
	t.windows++

	// Reset per-window aggregates.
	for _, ctl := range t.accs {
		ctl.winBatches, ctl.winBytes, ctl.winPackets, ctl.winLatNs = 0, 0, 0, 0
	}
	for node := range t.nodes {
		t.nodes[node].winBatches, t.nodes[node].winBytes = 0, 0
	}

	// Sample: the window's spans, attributed per accelerator.
	n, newest := t.tel.Spans.CopySince(t.lastSeq, t.spanBuf)
	t.lastSeq = newest
	for i := 0; i < n; i++ {
		sp := &t.spanBuf[i]
		ctl := t.accs[core.AccID(sp.AccID)]
		if ctl == nil {
			ctl = t.adoptAcc(core.AccID(sp.AccID))
			if ctl == nil {
				continue // evicted before we could adopt it
			}
		}
		ctl.winBatches++
		ctl.winBytes += uint64(sp.Bytes)
		ctl.winPackets += uint64(sp.Packets)
		if lat := spanLatency(sp); lat > 0 {
			ctl.winLatNs += uint64(lat / eventsim.Nanosecond)
		}
		nc := &t.nodes[ctl.node]
		nc.winBatches++
		nc.winBytes += uint64(sp.Bytes)
	}

	// Sample: per-node IBQ pressure.
	for node := range t.nodes {
		nc := &t.nodes[node]
		rejected, hot, _, _ := t.act.IBQPressure(node)
		nc.winRejects = rejected - nc.prevRejected
		nc.prevRejected = rejected
		nc.hot = hot
	}

	// Decide and actuate per accelerator.
	for _, ctl := range t.accs {
		t.decide(ctl)
	}

	// Decide and actuate per node (burst).
	for node := range t.nodes {
		t.decideBurst(node)
	}

	t.timer.Reset(interval)
}

// spanLatency is a batch's end-to-end latency: first packet staged to
// the last stage that ran.
func spanLatency(sp *telemetry.Span) eventsim.Time {
	var end eventsim.Time
	for _, e := range sp.StageEnd {
		if e > end {
			end = e
		}
	}
	if end == 0 || end < sp.Start {
		return 0
	}
	return end - sp.Start
}

// adoptAcc brings a newly seen accelerator under control: resolve its
// identity, seed its targets at the global configuration, and register
// its gauges. This is a reconfiguration boundary — the one place the
// steady-state tick allocates.
func (t *Tuner) adoptAcc(acc core.AccID) *accCtl {
	info, err := t.act.AccInfo(acc)
	if err != nil {
		return nil
	}
	ctl := &accCtl{
		acc:    acc,
		name:   info.Name,
		node:   info.Node,
		target: t.maxBatch,
		flush:  t.maxFlush,
	}
	if ctl.node < 0 || ctl.node >= len(t.nodes) {
		ctl.node = 0
	}
	t.accs[acc] = ctl
	labels := fmt.Sprintf("acc_id=\"%d\",hf=%q", acc, ctl.name)
	t.tel.RegisterGauge("dhl_tuner_batch_target", labels,
		"Autotuner's current per-accelerator batch-bytes target.",
		func() float64 { return float64(ctl.target) })
	t.tel.RegisterGauge("dhl_tuner_flush_timeout_us", labels,
		"Autotuner's current per-accelerator flush deadline in microseconds.",
		func() float64 { return float64(ctl.flush) / float64(eventsim.Microsecond) })
	return ctl
}

// decide runs the control law for one accelerator over the closed
// window.
func (t *Tuner) decide(ctl *accCtl) {
	if ctl.winBatches == 0 {
		// No traffic: nothing to read a signal from. Hold position and
		// let the streaks age out so a lull doesn't cash in stale intent.
		ctl.upStreak, ctl.downStreak = 0, 0
		return
	}
	fill := float64(ctl.winBytes) / float64(ctl.winBatches) / float64(ctl.target)
	ctl.lastFill = fill
	ctl.lastLatNs = float64(ctl.winLatNs) / float64(ctl.winBatches)
	nc := &t.nodes[ctl.node]
	pressured := nc.hot || nc.winRejects > 0

	switch {
	case pressured || fill >= highFill:
		ctl.upStreak++
		ctl.downStreak = 0
	case fill <= lowFill:
		ctl.downStreak++
		ctl.upStreak = 0
	default:
		ctl.upStreak, ctl.downStreak = 0, 0
	}

	if ctl.upStreak >= hysteresis {
		target := min(ctl.target*2, t.maxBatch)
		flush := min(ctl.flush*2, t.maxFlush)
		t.apply(ctl, target, flush, true)
	} else if ctl.downStreak >= hysteresis {
		target := max(ctl.target/2, core.MinBatchBytes)
		flush := max(ctl.flush/2, minFlushTimeout)
		t.apply(ctl, target, flush, false)
	}
}

// apply actuates one decision, counting it only when it changes the
// configuration (a saturated streak at the clamp is not a decision).
func (t *Tuner) apply(ctl *accCtl, target int, flush eventsim.Time, grow bool) {
	if target == ctl.target && flush == ctl.flush {
		return
	}
	if target != ctl.target {
		if err := t.act.SetAccBatchBytes(ctl.acc, target); err != nil {
			return // evicted mid-window; the next tick stops seeing it
		}
		ctl.target = target
	}
	if flush != ctl.flush {
		if err := t.act.SetAccFlushTimeout(ctl.acc, flush); err != nil {
			return
		}
		ctl.flush = flush
	}
	if grow {
		t.growDecs++
	} else {
		t.shrinkDecs++
	}
}

// decideBurst runs the per-node burst law: pressure grows the poll
// cores' claim width (drain the IBQ faster), a lightly filled window
// shrinks it back (smaller claims, lower per-poll latency). The same
// hysteresis as the per-acc law applies — a direction must persist for
// hysteresis consecutive windows before the burst moves.
func (t *Tuner) decideBurst(node int) {
	nc := &t.nodes[node]
	if nc.burst == 0 {
		return // cores not attached on this node
	}
	switch {
	case nc.hot || nc.winRejects > 0:
		nc.upStreak++
		nc.downStreak = 0
	case nc.winBatches > 0 &&
		float64(nc.winBytes)/float64(nc.winBatches) <= lowFill*float64(t.maxBatch):
		nc.downStreak++
		nc.upStreak = 0
	default:
		nc.upStreak, nc.downStreak = 0, 0
		return
	}
	var want int
	switch {
	case nc.upStreak >= hysteresis:
		want = min(nc.burst*2, maxBurst)
	case nc.downStreak >= hysteresis:
		want = max(nc.burst/2, minBurst)
	default:
		return
	}
	if want == nc.burst {
		return
	}
	if err := t.act.SetBurst(node, want); err != nil {
		return
	}
	if want > nc.burst {
		t.growDecs++
	} else {
		t.shrinkDecs++
	}
	nc.burst = want
}

// armGauges registers the controller-level gauges once per Tuner (they
// survive Disable/Enable cycles without duplicating series).
func (t *Tuner) armGauges() {
	if t.gaugesArmed {
		return
	}
	t.gaugesArmed = true
	t.tel.RegisterGauge("dhl_tuner_enabled", "",
		"1 while the adaptive batching autotuner is armed.",
		func() float64 {
			if t.enabled {
				return 1
			}
			return 0
		})
	t.tel.RegisterGauge("dhl_tuner_windows", "",
		"Sampling windows the autotuner has closed.",
		func() float64 { return float64(t.windows) })
	t.tel.RegisterGauge("dhl_tuner_decisions", `action="grow"`,
		"Autotuner reconfigurations applied, by direction.",
		func() float64 { return float64(t.growDecs) })
	t.tel.RegisterGauge("dhl_tuner_decisions", `action="shrink"`,
		"Autotuner reconfigurations applied, by direction.",
		func() float64 { return float64(t.shrinkDecs) })
}

// AccStatus is one accelerator's row in Status.
type AccStatus struct {
	AccID          uint16  `json:"acc_id"`
	Name           string  `json:"hf"`
	Node           int     `json:"node"`
	BatchTarget    int     `json:"batch_target"`
	FlushTimeoutUs float64 `json:"flush_timeout_us"`
	Fill           float64 `json:"fill"`
	BatchLatencyUs float64 `json:"batch_latency_us"`
}

// NodeStatus is one node's row in Status.
type NodeStatus struct {
	Node     int    `json:"node"`
	Burst    int    `json:"burst"`
	Rejected uint64 `json:"ibq_rejected"`
	Hot      bool   `json:"ibq_pressured"`
}

// Status is the controller's operator-facing state, embedded in the
// `tune.auto` RPC result and rendered by dhl-inspect's tuner panel.
type Status struct {
	Enabled         bool         `json:"enabled"`
	IntervalUs      float64      `json:"interval_us"`
	Windows         uint64       `json:"windows"`
	GrowDecisions   uint64       `json:"grow_decisions"`
	ShrinkDecisions uint64       `json:"shrink_decisions"`
	Accs            []AccStatus  `json:"accs,omitempty"`
	Nodes           []NodeStatus `json:"nodes,omitempty"`
}

// Status reports the controller's current state. Cold path: the result
// is freshly allocated.
func (t *Tuner) Status() Status {
	s := Status{
		Enabled:         t.enabled,
		IntervalUs:      float64(interval) / float64(eventsim.Microsecond),
		Windows:         t.windows,
		GrowDecisions:   t.growDecs,
		ShrinkDecisions: t.shrinkDecs,
	}
	for _, ctl := range t.accs {
		s.Accs = append(s.Accs, AccStatus{
			AccID:          uint16(ctl.acc),
			Name:           ctl.name,
			Node:           ctl.node,
			BatchTarget:    ctl.target,
			FlushTimeoutUs: float64(ctl.flush) / float64(eventsim.Microsecond),
			Fill:           ctl.lastFill,
			BatchLatencyUs: ctl.lastLatNs / 1e3,
		})
	}
	sort.Slice(s.Accs, func(i, j int) bool { return s.Accs[i].AccID < s.Accs[j].AccID })
	for node := range t.nodes {
		rejected, hot, _, _ := t.act.IBQPressure(node)
		s.Nodes = append(s.Nodes, NodeStatus{
			Node:     node,
			Burst:    t.act.Burst(node),
			Rejected: rejected,
			Hot:      hot,
		})
	}
	return s
}
