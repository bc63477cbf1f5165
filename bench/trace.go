package main

import "time"

// span is one traced call (or one timed batch of Count identical calls)
// the bench made into a layer. Spans are recorded only here, around the
// calls into each layer's exported functions; the program under test
// carries none.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: the run itself
	Layer  string `json:"layer"`  // package name
	Op     string `json:"op"`
	// StartNs/EndNs are wall time since process start.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// BusyNs is the time spent inside the layer over the span's Count
	// calls: process CPU time where the span times one contiguous
	// batch, summed wall time where it aggregates interleaved calls.
	BusyNs int64 `json:"busy_ns"`
	Count  int64 `json:"count"`
	Allocs int64 `json:"allocs"`
}

// traceFile is the schema of bench/out/trace-<workload>.json.
type traceFile struct {
	Env      environment        `json:"env"`
	Workload string             `json:"workload"`
	Spans    []span             `json:"spans"`
	Counts   map[string]float64 `json:"counts"`
}

// tracer keeps a traced run's spans and counts in memory until the run
// ends. A nil *tracer records nothing, so untraced runs pay nothing.
type tracer struct {
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{counts: map[string]float64{}} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, layer, op string, start, end time.Time, busy time.Duration, count, allocs int64) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Op: op,
		StartNs: start.Sub(processStart).Nanoseconds(), EndNs: end.Sub(processStart).Nanoseconds(),
		BusyNs: busy.Nanoseconds(), Count: count, Allocs: allocs,
	})
	return id
}

func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] = v
	}
}

// probeRounds is how many timed rounds a layer probe makes; the layer's
// metric is the median of the rounds.
const probeRounds = 5

// round times fn once between the host clocks and records it as a span
// over the number of operations fn reports.
func (t *tracer) round(layer, op string, fn func() (ops int64)) {
	m0 := mallocs()
	start, c0 := time.Now(), cpuTime()
	ops := fn()
	busy := cpuTime() - c0
	t.add(0, layer, op, start, time.Now(), busy, ops, int64(mallocs()-m0))
}

// probe times one layer operation from outside: fn performs ops
// operations on workload-shaped input. One untimed round warms caches
// and lazily built state, then each timed round becomes a span whose
// BusyNs is process CPU time.
func (t *tracer) probe(layer, op string, ops int, fn func()) {
	fn()
	for i := 0; i < probeRounds; i++ {
		t.round(layer, op, func() int64 { fn(); return int64(ops) })
	}
}

// unitCosts derives the per-layer timing table from the spans: for each
// "layer.op" the median over its spans of BusyNs per counted operation.
func (t *tracer) unitCosts() map[string]summary {
	per := map[string][]float64{}
	for _, s := range t.spans {
		if s.Count > 0 {
			name := s.Layer + "." + s.Op
			per[name] = append(per[name], float64(s.BusyNs)/float64(s.Count))
		}
	}
	out := make(map[string]summary, len(per))
	for name, vals := range per {
		out[name] = summarize(vals)
	}
	return out
}

// sink defeats dead-code elimination of probe loops whose results are
// otherwise unused.
var sink uint64

func keep(v uint64) { sink += v }
