package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts -compare hands out. The bench claims no gains, so a metric
// that moved the good way is reported with its ratio and called same.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// loadSet reads a set of runs: one result file, or every *.json result
// file in a directory (trace dumps are skipped). It returns, per
// workload, per metric, the sample the set holds.
func loadSet(path string) (map[string]map[string]summary, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	single := map[key]summary{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f runFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Results {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				values[k] = append(values[k], m.Median)
				single[k] = m.summary
			}
		}
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	set := map[string]map[string]summary{}
	for k, vals := range values {
		if set[k.workload] == nil {
			set[k.workload] = map[string]summary{}
		}
		s := summarize(vals)
		if len(vals) == 1 {
			s = single[k] // one run: its own reps are the sample
		}
		set[k.workload][k.metric] = s
	}
	return set, nil
}

// judge compares a metric's sample in set B against its sample in the
// base set A using the metric's own bound. ratio is B/A.
func judge(def metricDef, a, b summary) (ratio float64, verdict string) {
	if a.Median == 0 {
		if b.Median == 0 {
			return 1, verdictSame
		}
		return 0, verdictUnresolved
	}
	ratio = b.Median / a.Median
	worseBy := ratio - 1
	if def.Better == "higher" {
		worseBy = -worseBy
	}
	clearlyBetter := b.Q3 < a.Q1
	if def.Better == "higher" {
		clearlyBetter = b.Q1 > a.Q3
	}
	switch {
	case worseBy > def.Bound:
		return ratio, verdictWorse
	case clearlyBetter:
		return ratio, verdictSame
	case a.spread() > def.Bound || b.spread() > def.Bound:
		// The sets are noisier than the bound: "no regression" cannot
		// be told from "regression within the noise" — unless B's
		// quartiles sit wholly on the good side of A's.
		return ratio, verdictUnresolved
	}
	return ratio, verdictSame
}

// compareSets prints one row per workload x end-to-end metric and
// returns an error when any row is worse or unresolved.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base A = %s\nother B = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-13s %-20s %12s %12s %12s %4s | %12s %12s %12s %4s | %8s %6s %s\n",
		"workload", "metric", "A.median", "A.q1", "A.q3", "reps", "B.median", "B.q1", "B.q3", "reps", "B/A", "bound", "verdict")
	var names []string
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	bad := 0
	for _, name := range names {
		for _, def := range endToEnd {
			sa, okA := a[name][def.Name]
			sb, okB := b[name][def.Name]
			if !okA || !okB {
				continue
			}
			ratio, verdict := judge(def, sa, sb)
			if verdict != verdictSame {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-20s %12.6g %12.6g %12.6g %4d | %12.6g %12.6g %12.6g %4d | %8.4f %6.3f %s\n",
				name, def.Name, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N, ratio, def.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse or unresolved", bad)
	}
	return nil
}
