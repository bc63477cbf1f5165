package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// minReps is the fewest timed reps a run makes however short -seconds is.
const minReps = 3

// setupPasses is how many times a run sets the workload's system up;
// setup_s is the median pass.
const setupPasses = 5

// probeBursts is the length of the closed-loop probe a traced run of
// any workload makes to put numbers on the core layer.
const probeBursts = 4000

// timedRep is one timed rep's host-clock readings.
type timedRep struct {
	phase
	hostNs float64 // CPU ns per delivered packet
	allocs float64 // heap allocations per delivered packet
	wall   time.Duration
}

// runWorkload runs one workload: set-up passes, the latency phase (or a
// warm-up rep), then timed reps for -seconds. A traced run first times
// every layer from outside, then alternates untraced and traced reps.
func runWorkload(w workload, o options) (result, *tracer, error) {
	c := newRunCtx(o)
	res := result{Workload: w.Name, Seed: o.seed, Traced: o.trace, Metrics: map[string]metricValue{}, Raw: map[string]rawTime{}}
	if w.Loop == "open" {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"harness workloads take no seed (netdev.Generator hard-codes its own); -seed draws the offered-rate factor %.6f and warm-up offset %d ps",
			c.rate, int64(c.warmPhase)))
	}
	if o.smoke {
		res.Notes = append(res.Notes, "smoke run: 1 ms windows, 1 rep; the numbers mean nothing")
	}

	// Set-up passes and the reference kernel serve setup_s and
	// host_ns_per_pkt, which only an untraced run reports (per-layer
	// metrics carry no bound and stay in raw CPU time). The kernel runs
	// before the first and after each timed region.
	passes := setupPasses
	sampleKernel := func(into *[]float64) {}
	switch {
	case o.trace:
		passes = 0
	case o.smoke:
		passes = 1
	}
	if !o.trace {
		kernel := newRefKernel()
		sampleKernel = func(into *[]float64) { *into = append(*into, kernel.run()) }
	}
	var setups, setupKernel, repKernel []float64
	sampleKernel(&setupKernel)
	for i := 0; i < passes; i++ {
		c0 := cpuTime()
		if err := w.setup(c); err != nil {
			return res, nil, fmt.Errorf("set-up pass: %w", err)
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		sampleKernel(&setupKernel)
	}

	// A traced run's layer probes are measurement too: they share the
	// -seconds budget with the reps that follow.
	measStart := time.Now()
	var tr *tracer
	counts := map[string]float64{}
	if o.trace {
		tr = newTracer()
		c.tr = tr
		if err := layerProbes(c); err != nil {
			return res, tr, fmt.Errorf("layer probes: %w", err)
		}
		// The closed-loop probe puts numbers on the core layer. For
		// offload_rt64 the workload's own traced reps are that probe.
		if w.Name != "offload_rt64" {
			c.tel = telemetry.New(0)
			probe, err := runOffload(c, min(probeBursts, c.offloadBursts()))
			c.tel = nil
			if err != nil {
				return res, tr, fmt.Errorf("core probe: %w", err)
			}
			res.absorb(probe)
			for k, v := range probe.counts {
				if strings.HasPrefix(k, "probe.") {
					counts[k] = v
				}
			}
		}
	}

	virtual := map[string]float64{}
	if w.op != nil {
		if o.trace {
			c.tel = telemetry.New(0)
		}
		p, err := w.op(c)
		c.tel = nil
		if err != nil {
			return res, tr, fmt.Errorf("latency phase: %w", err)
		}
		res.absorb(p)
		res.LatSamples = p.latSamples
		merge(virtual, p.virtual)
		merge(counts, p.counts)
	} else if !o.smoke {
		if _, err := w.rep(c); err != nil {
			return res, tr, fmt.Errorf("warm-up rep: %w", err)
		}
	}

	// Timed reps. In a traced run odd reps are traced (telemetry armed
	// where the workload has a switch for it, a span around the call),
	// even reps are not, so both see the same machine weather.
	res.SinceStartS = time.Since(processStart).Seconds()
	budget := time.Duration(o.seconds) * time.Second
	want := o.reps
	if o.smoke {
		want = 1
	}
	var plain, traced []timedRep
	var first map[string]float64
	var lastWall time.Duration
	sampleKernel(&repKernel)
	for i := 0; ; i++ {
		if want > 0 && i >= want {
			break
		}
		if want == 0 && i >= minReps && time.Since(measStart)+lastWall > budget {
			break // one more rep would overrun -seconds
		}
		tracedRep := o.trace && (i%2 == 1 || want == 1)
		if tracedRep {
			c.tel = telemetry.New(0)
		}
		r, err := timeRep(w, c, tracedRep)
		c.tel = nil
		if err != nil {
			return res, tr, fmt.Errorf("rep %d: %w", i, err)
		}
		sampleKernel(&repKernel)
		res.absorb(r.phase)
		lastWall = r.wall
		if first == nil || (tracedRep && len(traced) == 0) {
			merge(counts, r.counts) // rep 0's, then what only a traced rep can read
		}
		if first == nil {
			first = r.virtual
			merge(virtual, r.virtual)
			if r.latSamples > 0 {
				res.LatSamples = r.latSamples
			}
		} else if diff := differs(first, r.virtual); diff != "" {
			// The virtual clock is deterministic: a rep that disagrees
			// with rep 0 means the simulator is not.
			res.Problems = append(res.Problems, fmt.Sprintf("rep %d: %s differs from rep 0", i, diff))
		}
		if tracedRep {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}

	if o.trace {
		res.fillPerLayer(tr, counts, plain, traced)
	} else {
		res.fillEndToEnd(virtual, plain, setups, setupKernel, repKernel)
	}
	if res.Attempted == 0 {
		res.Problems = append(res.Problems, "no packets were attempted")
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, tr, nil
}

// timeRep runs one rep between the host clocks.
func timeRep(w workload, c *runCtx, traced bool) (timedRep, error) {
	runtime.GC() // every rep starts from a collected heap
	m0 := mallocs()
	start, c0 := time.Now(), cpuTime()
	p, err := w.rep(c)
	cpu := cpuTime() - c0
	end := time.Now()
	allocs := mallocs() - m0
	if err != nil {
		return timedRep{}, err
	}
	if p.pkts == 0 {
		return timedRep{}, fmt.Errorf("rep delivered no packets")
	}
	if p.cpu > 0 {
		cpu = p.cpu
	}
	if traced {
		c.tr.add(0, "harness", w.Name, start, end, cpu, int64(p.pkts), int64(allocs))
	}
	return timedRep{
		phase:  p,
		hostNs: float64(cpu.Nanoseconds()) / float64(p.pkts),
		allocs: float64(allocs) / float64(p.pkts),
		wall:   end.Sub(start),
	}, nil
}

// absorb adds a phase's operation counts and problems to the result.
func (r *result) absorb(p phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Problems = append(r.Problems, p.problems...)
}

func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// differs names the first metric on which two reps' virtual readings
// are not bit-identical, or returns "".
func differs(a, b map[string]float64) string {
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return fmt.Sprintf("%s (%v vs %v)", k, v, bv)
		}
	}
	if len(a) != len(b) {
		return "metric set"
	}
	return ""
}

func column(reps []timedRep, f func(timedRep) float64) summary {
	vals := make([]float64, len(reps))
	for i, r := range reps {
		vals[i] = f(r)
	}
	return summarize(vals)
}

func (r *result) set(name string, s summary) {
	def, ok := findMetric(endToEnd, name)
	if !ok {
		def, _ = findMetric(perLayer, name)
	}
	r.Metrics[name] = metricValue{summary: s, Unit: def.Unit}
}

func exact(v float64) summary { return summary{Median: v, Q1: v, Q3: v, N: 1} }

// notApplicable is what a workload reports for an end-to-end metric it
// has no reading of (a flow table it does not hold, a simulator the
// harness does not export). The contract wants every metric from every
// workload and never 0; a constant 1 can neither regress nor improve.
const notApplicable = 1

func (r *result) fillEndToEnd(virtual map[string]float64, reps []timedRep, setups, setupKernel, repKernel []float64) {
	for _, d := range endToEnd {
		switch d.Name {
		case "host_ns_per_pkt":
			r.setReferenceTime(d.Name, column(reps, func(t timedRep) float64 { return t.hostNs }), repKernel)
		case "allocs_per_pkt":
			// The reps allocate identically; the runtime adds a handful
			// of objects of its own to some of them, never removes any.
			// The lowest rep is therefore the workload's own count.
			s := column(reps, func(t timedRep) float64 { return t.allocs })
			s.Median = slices.Min(s.Values)
			r.set(d.Name, s)
		case "setup_s":
			r.setReferenceTime(d.Name, summarize(setups), setupKernel)
		default:
			v, ok := virtual[d.Name]
			if !ok {
				v = notApplicable
			}
			r.set(d.Name, exact(v))
		}
	}
}

// setReferenceTime reports a host-clock metric in reference time (see
// refKernel): each raw measurement scaled by how fast the reference
// kernel ran just before and just after it (kernel has one sample more
// than raw has values). The raw summary and the kernel's times stay in
// the result file.
func (r *result) setReferenceTime(name string, raw summary, kernel []float64) {
	r.Raw[name] = rawTime{Raw: raw, KernelS: summarize(kernel)}
	scaled := make([]float64, len(raw.Values))
	for i, v := range raw.Values {
		scaled[i] = v * refKernel.Seconds() / ((kernel[i] + kernel[i+1]) / 2)
	}
	r.set(name, summarize(scaled))
}

// fillPerLayer derives the per-layer table: unit costs from the spans,
// counts from the workload's own phases, and the three figures that
// need both.
func (r *result) fillPerLayer(tr *tracer, counts map[string]float64, plain, traced []timedRep) {
	costs := tr.unitCosts()
	for _, d := range perLayer {
		if s, ok := costs[d.Name]; ok {
			r.set(d.Name, s)
		} else {
			r.set(d.Name, exact(counts[d.Name])) // 0: the workload bypasses the layer
		}
	}

	if len(plain) > 0 && len(traced) > 0 {
		p := column(plain, func(t timedRep) float64 { return t.hostNs })
		t := column(traced, func(t timedRep) float64 { return t.hostNs })
		r.set("trace.overhead_share", exact(t.Median/p.Median-1))
	}

	// core's self time on the closed-loop probe: the probe's CPU time
	// minus what its children would cost at their probed unit prices.
	// Each batch crosses the DMA model twice and the Dispatcher once,
	// and those three probes include their completion event; every
	// other event is, to first order, an idle poll iteration.
	unit := func(name string) float64 { return costs[name].Median }
	pkts, batches := counts["probe.pkts"], counts["probe.batches"]
	rt := unit("core.rt_ns_per_pkt") * pkts
	if rt > 0 {
		children := pkts*(unit("mbuf.alloc_free_ns")+2*unit("ring.burst32_ns_per_pkt")+
			unit("dhlproto.append64_ns_per_rec")+2*unit("dhlproto.cursor_ns_per_rec")) +
			counts["probe.bytes"]*unit("hwfunc.loopback_ns_per_byte") +
			batches*(2*unit("pcie.transfer_ns")+unit("fpga.dispatch_ns_per_batch")) +
			(counts["probe.events"]-3*batches)*unit("eventsim.idle_iter_ns")
		gap := 1 - children/rt
		r.set("trace.layer_gap_share", exact(gap))
		r.set("core.self_est_ns_per_pkt", exact(gap*unit("core.rt_ns_per_pkt")))
	}
	for k, v := range counts {
		tr.count(k, v)
	}
}
