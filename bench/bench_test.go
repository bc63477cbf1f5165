package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected quartiles are what Python's
// statistics.quantiles(values, n=4) returns for the same input.
func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		vals           []float64
		q1, median, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3.27, 3.44, 3.24, 2.5, 3.8, 3.1, 3.3}, 3.1, 3.27, 3.44},
	} {
		s := summarize(tc.vals)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.median) || !near(s.Q3, tc.q3) || s.N != len(tc.vals) {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v n %d, want %v %v %v", tc.vals, s.Q1, s.Median, s.Q3, s.N, tc.q1, tc.median, tc.q3)
		}
	}
	if s := summarize(nil); s.N != 0 || s.spread() != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
	if got := summarize([]float64{90, 100, 110, 95, 105}).spread(); !near(got, 0.15) {
		t.Errorf("spread = %v, want 0.15", got)
	}
}

func TestGroupedQuantile(t *testing.T) {
	// 10 round trips seen at the 23 us poll, 30 at 24 us, 10 at 25 us.
	var rt []float64
	for v, n := range map[float64]int{23: 10, 24: 30, 25: 10} {
		for i := 0; i < n; i++ {
			rt = append(rt, v)
		}
	}
	sort.Float64s(rt)
	// Rank 25 of 50 is halfway through the 24 us group: (23, 24].
	if got := groupedQuantile(rt, 0.5); !near(got, 23.5) {
		t.Errorf("p50 = %v, want 23.5", got)
	}
	// Rank 49.5 is 9.5 of 10 through (24, 25].
	if got := groupedQuantile(rt, 0.99); !near(got, 24.95) {
		t.Errorf("p99 = %v, want 24.95", got)
	}
	// The lowest group has no neighbour below to interpolate towards.
	if got := groupedQuantile(rt, 0.1); got != 23 {
		t.Errorf("p10 = %v, want 23", got)
	}
	if got := groupedQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestJudge(t *testing.T) {
	host, _ := findMetric(endToEnd, "host_ns_per_pkt") // lower is better
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 7} }
	loose := func(m float64) summary { return summary{Median: m, Q1: m * 0.8, Q3: m * 1.2, N: 7} }
	goodput, _ := findMetric(endToEnd, "goodput_gbps") // higher is better
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b summary
		want string
	}{
		{"within bound", host, tight(1000), tight(1000 * (1 + host.Bound/2)), verdictSame},
		{"faster is not a regression", host, tight(1000), tight(500), verdictSame},
		{"beyond bound", host, tight(1000), tight(1000 * (1 + 2*host.Bound)), verdictWorse},
		{"noisier than the bound", host, loose(1000), tight(1000), verdictUnresolved},
		{"noisy but clearly worse", host, loose(1000), tight(2000), verdictWorse},
		{"higher-is-better drop", goodput, tight(18.54), tight(18.0), verdictWorse},
		{"higher-is-better gain", goodput, tight(18.54), tight(19.0), verdictSame},
		{"identical", goodput, exact(18.54), exact(18.54), verdictSame},
	} {
		if _, got := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if ratio, _ := judge(host, tight(1000), tight(1100)); !near(ratio, 1.1) {
		t.Errorf("ratio = %v, want 1.1 (B over base A)", ratio)
	}
}

func sampleResult(workload string, seed int64, hostNs float64) result {
	r := result{Workload: workload, Seed: seed, Correct: true, Attempted: 1000, Metrics: map[string]metricValue{}, Raw: map[string]rawTime{}}
	// The box runs the reference kernel at its nominal speed: one sample
	// before and one after each of up to three timed regions.
	ref := refKernel.Seconds()
	atRef := []float64{ref, ref, ref, ref}
	r.fillEndToEnd(map[string]float64{"goodput_gbps": 18.54, "lat_p50_us": 11.8, "lat_p99_us": 13.4},
		[]timedRep{{hostNs: hostNs * 0.98, allocs: 12}, {hostNs: hostNs, allocs: 12}, {hostNs: hostNs * 1.02, allocs: 12}},
		[]float64{0.5, 0.6, 0.55}, atRef, atRef)
	return r
}

// A box running the reference kernel at half speed is charged half of
// every raw host time; each region is scaled by the samples beside it.
func TestReferenceTime(t *testing.T) {
	ref := refKernel.Seconds()
	r := result{Metrics: map[string]metricValue{}, Raw: map[string]rawTime{}}
	r.setReferenceTime("host_ns_per_pkt", summarize([]float64{4000, 4000, 6000}), []float64{2 * ref, 2 * ref, 2 * ref, 4 * ref})
	m := r.Metrics["host_ns_per_pkt"]
	if want := []float64{2000, 2000, 2000}; !near(m.Values[0], want[0]) || !near(m.Values[1], want[1]) || !near(m.Values[2], want[2]) || !near(m.Median, 2000) {
		t.Errorf("reference time %v (median %v), want %v", m.Values, m.Median, want)
	}
	if raw := r.Raw["host_ns_per_pkt"]; raw.Raw.Median != 4000 || !near(raw.KernelS.Median, 2*ref) {
		t.Errorf("raw record %+v", raw)
	}
}

// Every end-to-end metric a run produces must survive the trip through
// a result file, and the contract line must carry exactly its four keys.
func TestSchemaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := sampleResult("ipsec64", 3, 3000)
	if err := writeFiles(options{out: dir}, environment{Seed: 3}, r, nil); err != nil {
		t.Fatal(err)
	}
	set, err := loadSet(filepath.Join(dir, "ipsec64-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		got, ok := set["ipsec64"][d.Name]
		if !ok {
			t.Fatalf("%s lost in the round trip", d.Name)
		}
		if want := r.Metrics[d.Name]; got.Median != want.Median || got.Q1 != want.Q1 || got.Q3 != want.Q3 || got.N != want.N {
			t.Errorf("%s: read back %+v, wrote %+v", d.Name, got, want)
		}
	}
	if m := r.Metrics["mem_bytes_per_flow"]; m.Median != notApplicable || m.Unit != "B" {
		t.Errorf("a metric the workload has no reading of must read %v: %+v", notApplicable, m)
	}

	var buf bytes.Buffer
	if err := printContractLine(&buf, r); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("contract line has keys %v", line)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["host_ns_per_pkt"].Value != 3000 || metrics["host_ns_per_pkt"].Unit != "ns" {
		t.Errorf("contract metrics: %+v", metrics)
	}
}

// -compare on two directories of runs takes one value per run; on two
// single files it takes each run's own reps.
func TestCompareSets(t *testing.T) {
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	for seed := int64(1); seed <= 4; seed++ {
		jitter := 1 + 0.01*float64(seed)
		for dir, base := range map[string]float64{a: 3000, b: 3050, c: 4500} {
			if err := writeFiles(options{out: dir}, environment{}, sampleResult("ipsec64", seed, base*jitter), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	if err := compareSets(&out, a, b); err != nil {
		t.Errorf("two sets of one commit: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), verdictWorse) || strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("unexpected verdict:\n%s", out.String())
	}
	out.Reset()
	if err := compareSets(&out, a, c); err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 50%% slowdown must be called worse (err %v):\n%s", err, out.String())
	}
	out.Reset()
	one := filepath.Join(a, "ipsec64-seed1.json")
	if err := compareSets(&out, one, one); err != nil {
		t.Errorf("a file against itself: %v\n%s", err, out.String())
	}
	if _, err := loadSet(filepath.Join(a, "missing.json")); err == nil {
		t.Error("a missing file must be an error")
	}
}

// BENCHMARK.json repeats the names, units, directions and bounds of the
// tables in metrics.go and workloads.go; the two must not drift.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the bench", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the bench %q: %q", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the bench", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the bench %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s: bound in BENCHMARK.json differs from %v", d.Name, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestSmoke drives every workload's wiring, untraced and traced, with
// 1 ms windows and one rep: the numbers mean nothing, the gates do.
// Every harness call simulates a 60 ms partial reconfiguration before
// its first packet, which the race detector stretches to seconds, so
// -short keeps to the traced run of the workload that owns its
// simulator: that covers every layer probe, the closed loop, the tracer
// and the output files.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			if testing.Short() && (w.Name != "offload_rt64" || trace != "1") {
				continue
			}
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) { smoke(t, dir, w.Name, trace) })
		}
	}
}

func smoke(t *testing.T, dir, name, trace string) {
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-workload", name, "-trace", trace, "-out", dir}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool
		Attempted uint64
		Failed    uint64
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the contract object: %v", err)
	}
	defs := endToEnd
	if trace == "1" {
		defs = perLayer
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
			t.Errorf("traced run left no span dump: %v", err)
		}
	}
	if !line.Correct || line.Attempted == 0 || line.Failed != 0 || len(line.Metrics) != len(defs) {
		t.Errorf("%+v", line)
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok {
			t.Errorf("no %s", d.Name)
		} else if trace == "0" && !(m.Value > 0) {
			t.Errorf("end-to-end metric %s reads %v, must never be 0", d.Name, m.Value)
		}
	}
}

func TestFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"offload_rt64", "host_ns_per_pkt", "trace.layer_gap_share"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list does not name %s", want)
		}
	}
	if err := run([]string{"-workload", "nope"}, &out); err == nil {
		t.Error("an unknown workload must be an error")
	}
	if err := run([]string{"-compare", "only-one"}, &out); err == nil {
		t.Error("-compare with one argument must be an error")
	}
}
