// Package telemetry is dhl-go's zero-allocation observability layer: it
// lets the pipeline explain itself from the inside, per stage, while the
// hot path keeps its allocation budget of exactly zero.
//
// The package provides four primitives, all preallocated at registry
// construction so the recording paths (which run inside `//dhl:hotpath`
// functions) never touch the heap:
//
//   - Counter: a single atomic counter padded to its own cache line, and
//     CoreCounters, one padded block of them per transfer core;
//   - Histogram: a fixed-bucket (exponential bounds) latency histogram
//     recording simulated durations with lock-free atomic adds;
//   - SpanRing: a bounded ring of per-batch trace Spans (nf_id, acc_id,
//     bytes, per-stage timestamps, outcome) overwriting oldest-first;
//   - registered pull gauges: cold closures (ring occupancy, arena
//     leases, DMA backlog, health state) evaluated only at snapshot or
//     scrape time, so the hot path pays nothing for them.
//
// A Registry bundles them for one runtime. It is exposed three ways: the
// Snapshot/Delta API (dhl.System.Snapshot), the HTTP Exporter serving
// Prometheus text format and expvar-style JSON (plus net/http/pprof on
// the same mux), and the live per-stage view of `dhl-inspect -watch`.
//
// All mutating entry points are safe for concurrent use: counters and
// histograms are atomic, the span ring takes a mutex only around a
// fixed-size copy, so an exporter goroutine can scrape while the
// simulation records.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
)

// Stage identifies one leg of a batch's journey through the pipeline:
// IBQ wait (per packet) -> Packer staging -> H2C DMA -> accelerator
// module -> C2H DMA -> Distributor delivery.
type Stage int

// Pipeline stages, in batch-traversal order.
const (
	// StageIBQWait is the per-packet wait between SendPackets stamping
	// the packet into the shared IBQ and the TX core dequeuing it.
	StageIBQWait Stage = iota
	// StagePack covers Packer staging: first packet staged to flush.
	StagePack
	// StageH2C covers the host-to-card DMA transfer, post to completion,
	// including retry backoff for injected transfer faults.
	StageH2C
	// StageAccel covers the accelerator module, dispatch to completion.
	StageAccel
	// StageC2H covers the card-to-host DMA transfer of the response.
	StageC2H
	// StageDistribute covers completion-ring wait plus Distributor
	// decode and OBQ delivery.
	StageDistribute
	// NumStages sizes per-stage arrays.
	NumStages
)

// String names the stage as it appears in metric labels.
func (s Stage) String() string {
	switch s {
	case StageIBQWait:
		return "ibq_wait"
	case StagePack:
		return "pack"
	case StageH2C:
		return "h2c"
	case StageAccel:
		return "accelerator"
	case StageC2H:
		return "c2h"
	case StageDistribute:
		return "distribute"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Counter is a monotonic event counter padded to a cache line so
// adjacent counters incremented by different cores never share one.
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load reads the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// CounterKind indexes the per-core counter block.
type CounterKind int

// Per-core counter kinds. Batches/Packets/Bytes count finalized batches
// (whatever their outcome) and their contents; the outcome kinds break
// the batch count down; DMARetries counts transient re-posts.
const (
	// CounterBatches counts batches finalized on this core.
	CounterBatches CounterKind = iota
	// CounterPackets counts packets carried by finalized batches.
	CounterPackets
	// CounterBytes counts encoded request bytes of finalized batches.
	CounterBytes
	// CounterFallbackBatches counts batches run by a software fallback.
	CounterFallbackBatches
	// CounterUnprocessedBatches counts batches passed through untouched.
	CounterUnprocessedBatches
	// CounterFailedBatches counts batches that took the failure edge.
	CounterFailedBatches
	// CounterCorruptBatches counts batches whose response framing did
	// not decode.
	CounterCorruptBatches
	// CounterDMARetries counts transient DMA transfer re-posts.
	CounterDMARetries
	// NumCounters sizes the per-core block.
	NumCounters
)

// String names the counter kind as it appears in metric names.
func (k CounterKind) String() string {
	switch k {
	case CounterBatches:
		return "batches"
	case CounterPackets:
		return "packets"
	case CounterBytes:
		return "bytes"
	case CounterFallbackBatches:
		return "fallback_batches"
	case CounterUnprocessedBatches:
		return "unprocessed_batches"
	case CounterFailedBatches:
		return "failed_batches"
	case CounterCorruptBatches:
		return "corrupt_batches"
	case CounterDMARetries:
		return "dma_retries"
	default:
		return fmt.Sprintf("CounterKind(%d)", int(k))
	}
}

// CoreCounters is one transfer core's preallocated, padded counter
// block. The owning engine increments only its own block, so the blocks
// never contend; snapshots sum across them.
type CoreCounters struct {
	name string
	c    [NumCounters]Counter
}

// Name reports the core label ("tx/0", "rx/1", ...).
func (cc *CoreCounters) Name() string { return cc.name }

// Inc adds one to counter k.
func (cc *CoreCounters) Inc(k CounterKind) { cc.c[k].v.Add(1) }

// Add adds n to counter k.
func (cc *CoreCounters) Add(k CounterKind, n uint64) { cc.c[k].v.Add(n) }

// Load reads counter k.
func (cc *CoreCounters) Load(k CounterKind) uint64 { return cc.c[k].v.Load() }

// HealthCounters count accelerator health-FSM transitions (PR 4's
// Healthy/Degraded/Quarantined machine). Each counts entries *into* the
// named state, so quarantine flaps are visible even when the gauge has
// already healed back.
type HealthCounters struct {
	// Degraded counts Healthy -> Degraded transitions.
	Degraded Counter
	// Quarantined counts transitions into Quarantined.
	Quarantined Counter
	// Recovered counts returns to Healthy (success streak or completed
	// PR reload with configuration replay).
	Recovered Counter
}

// GaugeFunc is a registered pull gauge: a cold closure evaluated at
// snapshot/scrape time only, never on the hot path.
type GaugeFunc struct {
	// Name is the Prometheus metric family name (e.g.
	// "dhl_ring_occupancy").
	Name string
	// Labels is the pre-rendered label list without braces (e.g.
	// `ring="ibq-node0"`), empty for an unlabelled gauge.
	Labels string
	// Help is the metric family's HELP text; the first registration of a
	// Name wins.
	Help string
	// Fn produces the current value.
	Fn func() float64
}

// DefaultSpanCap is the span ring's default capacity.
const DefaultSpanCap = 256

// Registry is the root telemetry object for one runtime: per-stage
// latency histograms, DMA/dispatch service histograms, per-core counter
// blocks, health-transition counters, the span ring, and the registered
// pull gauges. Construct with New; the zero value is not usable.
type Registry struct {
	// Stages are the per-stage latency histograms, indexed by Stage.
	Stages [NumStages]Histogram
	// DMAH2C and DMAC2H record per-transfer DMA service time (post to
	// completion) as observed inside the pcie engine.
	DMAH2C Histogram
	// DMAC2H is the card-to-host direction of DMAH2C.
	DMAC2H Histogram
	// Dispatch records accelerator service time (dispatch to module
	// completion) as observed inside the fpga Dispatcher.
	Dispatch Histogram
	// Health counts health-FSM transitions.
	Health HealthCounters
	// Spans is the bounded per-batch trace ring.
	Spans SpanRing

	mu     sync.Mutex
	cores  []*CoreCounters
	gauges []GaugeFunc
}

// New builds a Registry whose span ring holds spanCap batches (0 selects
// DefaultSpanCap). Everything the hot path writes is preallocated here.
func New(spanCap int) *Registry {
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	return &Registry{Spans: SpanRing{buf: make([]Span, spanCap)}}
}

// RegisterCore allocates the padded counter block for one transfer core
// (role "tx" or "rx"). Cold: called once per core at attach time.
func (r *Registry) RegisterCore(role string, node int) *CoreCounters {
	cc := &CoreCounters{name: fmt.Sprintf("%s/%d", role, node)}
	r.mu.Lock()
	r.cores = append(r.cores, cc)
	r.mu.Unlock()
	return cc
}

// RegisterGauge installs a pull gauge evaluated at snapshot/scrape time.
// labels is the pre-rendered Prometheus label list without braces (may
// be empty); help is the family's HELP text (first registration wins).
// Cold: called at wiring time, never on the data path.
func (r *Registry) RegisterGauge(name, labels, help string, fn func() float64) {
	r.mu.Lock()
	r.gauges = append(r.gauges, GaugeFunc{Name: name, Labels: labels, Help: help, Fn: fn})
	r.mu.Unlock()
}

// UnregisterGauge removes every pull gauge matching name and labels
// exactly, reporting how many were removed. Cold: the control plane
// calls it when the object a gauge reads (an evicted accelerator) leaves
// the system, so scrapes do not accumulate stale series.
func (r *Registry) UnregisterGauge(name, labels string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.gauges[:0]
	removed := 0
	for _, g := range r.gauges {
		if g.Name == name && g.Labels == labels {
			removed++
			continue
		}
		kept = append(kept, g)
	}
	for i := len(kept); i < len(r.gauges); i++ {
		r.gauges[i] = GaugeFunc{}
	}
	r.gauges = kept
	return removed
}

// ObserveStage records one duration into the stage's histogram. Safe on
// the hot path: a bucket lookup and three atomic adds.
func (r *Registry) ObserveStage(s Stage, d eventsim.Time) {
	r.Stages[s].Observe(d)
}
