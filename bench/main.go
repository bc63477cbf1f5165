// Command bench is the repo's one performance ledger: six workloads,
// eight end-to-end metrics on two clocks (the virtual clock of the
// modelled testbed and the host clock of this Go code), and — with
// -trace 1 — per-layer timings taken from outside, by timing calls into
// each layer's exported functions. bench/README.md defines every name.
//
//	go run ./bench                       every workload, untraced
//	go run ./bench -workload ipsec64     one workload
//	go run ./bench -trace 1              per-layer metrics and span dump
//	go run ./bench -compare A.json B.json
//	go run ./bench -list
//
// The last line of standard output is one JSON object (correct,
// attempted, failed, metrics) for the last workload run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart anchors span timestamps and the "since process start"
// figure printed beside setup_s.
var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

type options struct {
	workload string
	seed     int64
	seconds  int
	reps     int
	trace    bool
	smoke    bool
	out      string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all six, see -list)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every input the bench generates")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "measurement time per workload")
	fs.IntVar(&o.reps, "reps", 0, "timed reps per workload (0: as many as -seconds allows, at least 3)")
	fs.IntVar(&trace, "trace", 0, "1: traced run, per-layer metrics and bench/out/trace-<workload>.json")
	fs.BoolVar(&o.smoke, "smoke", false, "wiring check: 1 rep, 1 ms windows, numbers meaningless")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	list := fs.Bool("list", false, "print workload and metric names with units, then exit")
	compare := fs.Bool("compare", false, "compare two result files or directories: -compare A B")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = trace != 0
	if *list {
		printList(stdout)
		return nil
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files or directories")
		}
		return compareSets(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}

	// One driving goroutine plus one P for the collector: the same on
	// every host with at least two CPUs, so files from different boxes
	// are at least the same experiment.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}

	selected := workloads
	if o.workload != "" && o.workload != "all" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (see -list)", o.workload)
		}
		selected = []workload{w}
	}

	env := captureEnv(o)
	var failed []string
	for _, w := range selected {
		res, tr, err := runWorkload(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		printResult(stdout, res)
		if err := writeFiles(o, env, res, tr); err != nil {
			return err
		}
		if err := printContractLine(stdout, res); err != nil {
			return err
		}
		if !res.Correct {
			failed = append(failed, w.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness gate failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %-6s %s\n", wl.Name, wl.Loop, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-20s %-7s %-6s %-7s bound %.3f  %s\n", m.Name, m.Unit, m.Better, m.Clock, m.Bound, m.Doc)
	}
	fmt.Fprintln(w, "per-layer metrics (-trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-38s %-6s %-6s %-7s %s\n", m.Name, m.Unit, m.Better, m.Clock, m.Doc)
	}
}

// metricValue is one metric of one run. Its value (summary.Median) is
// what comparisons use: the median over the run's timed reps for
// host-clock metrics, the (rep-invariant) reading for virtual-clock
// metrics and counts.
type metricValue struct {
	summary
	Unit string `json:"unit"`
}

// result is one workload's run as it is written to bench/out.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Raw holds, for each host-clock metric reported in reference time,
	// the raw measurements and the reference kernel's times beside them.
	Raw map[string]rawTime `json:"raw,omitempty"`
	// LatSamples is the number of latency samples behind lat_p50_us and
	// lat_p99_us (p99 needs at least 1000 for ten samples beyond it).
	LatSamples uint64 `json:"lat_samples"`
	// SinceStartS is wall time from process start to the first timed rep.
	SinceStartS float64  `json:"since_start_s"`
	Problems    []string `json:"problems,omitempty"`
	Notes       []string `json:"notes,omitempty"`
}

// rawTime is what a reference-time metric was computed from.
type rawTime struct {
	Raw     summary `json:"raw"`
	KernelS summary `json:"ref_kernel_s"`
}

// runFile is the schema of every file under bench/out (and of what
// -compare reads): the environment, then one result per workload run.
type runFile struct {
	Env     environment `json:"env"`
	Results []result    `json:"results"`
}

func printResult(w io.Writer, r result) {
	kind, defs := "end-to-end", endToEnd
	if r.Traced {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  ops %d  failed %d  correct %v  lat_samples %d  first timed rep at %.2fs\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.Correct, r.LatSamples, r.SinceStartS)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-7s", d.Name, m.Median, m.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, " q1 %-12.6g q3 %-12.6g reps %d", m.Q1, m.Q3, m.N)
		}
		if raw, ok := r.Raw[d.Name]; ok {
			fmt.Fprintf(w, " raw %.6g, reference kernel %.2f ms", raw.Raw.Median, raw.KernelS.Median*1e3)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
}

// printContractLine prints the one-line JSON object the benchmark
// contract reads from the end of standard output.
func printContractLine(w io.Writer, r result) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = mv{m.Median, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func writeFiles(o options, env environment, r result, tr *tracer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed)
	if r.Traced {
		name = fmt.Sprintf("%s-seed%d-trace.json", r.Workload, r.Seed)
	}
	if err := writeJSON(filepath.Join(o.out, name), runFile{Env: env, Results: []result{r}}); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return writeJSON(filepath.Join(o.out, "trace-"+r.Workload+".json"), traceFile{Env: env, Workload: r.Workload, Spans: tr.spans, Counts: tr.counts})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
