package harness

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/nf"
)

func TestFigure4Shape(t *testing.T) {
	// Spot-check the calibration anchors from §IV-A3 / Figure 4.
	small, err := runDMALoopback(dmaLocalNUMA, 64)
	if err != nil {
		t.Fatal(err)
	}
	if small.LatencyUs > 2.5 {
		t.Errorf("uio 64B RTT %.2fus, paper reports ~2us", small.LatencyUs)
	}
	big, err := runDMALoopback(dmaLocalNUMA, 6144)
	if err != nil {
		t.Fatal(err)
	}
	if big.ThroughputBps < 41e9 || big.ThroughputBps > 45e9 {
		t.Errorf("uio 6KB throughput %.1f Gbps, paper reports ~42 Gbps", big.ThroughputBps/1e9)
	}
	if big.LatencyUs < 3.0 || big.LatencyUs > 4.5 {
		t.Errorf("uio 6KB RTT %.2fus, paper reports 3.8us", big.LatencyUs)
	}
	smallKernel, err := runDMALoopback(dmaInKernel, 64)
	if err != nil {
		t.Fatal(err)
	}
	if smallKernel.LatencyUs < 5000 {
		t.Errorf("in-kernel 64B RTT %.0fus, paper reports ~10ms", smallKernel.LatencyUs)
	}
	remote, err := runDMALoopback(dmaRemoteNUMA, 64)
	if err != nil {
		t.Fatal(err)
	}
	delta := remote.LatencyUs - small.LatencyUs
	if delta < 0.3 || delta > 0.6 {
		t.Errorf("NUMA penalty %.2fus, paper reports ~0.4us", delta)
	}
	// Throughput is unaffected by NUMA placement (Fig. 4(a) finding).
	remoteBig, err := runDMALoopback(dmaRemoteNUMA, 6144)
	if err != nil {
		t.Fatal(err)
	}
	rel := remoteBig.ThroughputBps / big.ThroughputBps
	if rel < 0.99 || rel > 1.01 {
		t.Errorf("NUMA-remote throughput ratio %.3f, paper reports no degradation", rel)
	}
	// Small transfers must be far below the 42 Gbps ceiling.
	if small.ThroughputBps > 15e9 {
		t.Errorf("uio 64B throughput %.1f Gbps should be far below the 42 Gbps ceiling", small.ThroughputBps/1e9)
	}
	t.Logf("64B: %.2f Gbps / %.2fus; 6KB: %.2f Gbps / %.2fus; kernel 64B: %.2fms",
		small.ThroughputBps/1e9, small.LatencyUs, big.ThroughputBps/1e9, big.LatencyUs, smallKernel.LatencyUs/1e3)
}

func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	for _, shared := range []bool{true, false} {
		for _, size := range []int{64, 512, 1500} {
			res, err := RunMultiNF(MultiNFConfig{SharedAccelerator: shared, FrameSize: size})
			if err != nil {
				t.Fatal(err)
			}
			nf1 := res.NF1.WireBps / 1e9
			nf2 := res.NF2.WireBps / 1e9
			t.Logf("shared=%v %4dB: NF1 %.2f Gbps wire, NF2 %.2f Gbps wire (mismatches %d)",
				shared, size, nf1, nf2, res.NFIDMismatches)
			if res.NFIDMismatches != 0 {
				t.Errorf("isolation violated: %d nf_id mismatches", res.NFIDMismatches)
			}
			if size >= 512 {
				// Paper: both instances reach their 2x10G port ceiling.
				if nf1 < 19 || nf1 > 20.5 || nf2 < 19 || nf2 > 20.5 {
					t.Errorf("shared=%v %dB: expected ~20 Gbps per instance, got %.2f / %.2f", shared, size, nf1, nf2)
				}
			}
			// Fair sharing: neither NF starves the other.
			if nf2 > 0 && (nf1/nf2 > 1.5 || nf2/nf1 > 1.5) {
				t.Errorf("shared=%v %dB: unfair split %.2f vs %.2f Gbps", shared, size, nf1, nf2)
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	byName := map[table1NF]table1Result{}
	for _, row := range table1Rows {
		r, err := runTable1Row(row)
		if err != nil {
			t.Fatal(err)
		}
		byName[r.NF] = r
		t.Logf("%-14s %6.0f cycles  %5.2f Gbps wire  %5.2f Gbps input",
			r.NF, r.CyclesPerPkt, r.Throughput.WireBps/1e9, r.Throughput.InputBps/1e9)
	}
	// L2fwd and L3fwd saturate the 10G wire (paper: 9.95 / 9.72 Gbps).
	for _, name := range []table1NF{table1L2fwd, table1L3fwd} {
		if w := byName[name].Throughput.WireBps / 1e9; w < 9.5 || w > 10.05 {
			t.Errorf("%s wire throughput %.2f Gbps, paper reports ~9.7-9.95", name, w)
		}
	}
	// IPsec is compute-bound near 1.47 Gbps goodput.
	if g := byName[table1IPsec].Throughput.InputBps / 1e9; g < 1.3 || g > 1.7 {
		t.Errorf("IPsec-gateway goodput %.2f Gbps, paper reports 1.47", g)
	}
	if c := byName[table1IPsec].CyclesPerPkt; c != 796 {
		t.Errorf("IPsec-gateway cycles %f, Table I reports 796", c)
	}
	if c := byName[table1L2fwd].CyclesPerPkt; c != 36 {
		t.Errorf("L2fwd cycles %f, Table I reports 36", c)
	}
	if c := byName[table1L3fwd].CyclesPerPkt; c != 60 {
		t.Errorf("L3fwd-lpm cycles %f, Table I reports 60", c)
	}
}

func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation; skipped in -short CI gate")
	}
	rows, err := runTable5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-18s %5.1f MB bitstream -> %5.1f ms PR; running NF %.2f -> %.2f Gbps",
			r.Module, float64(r.BitstreamBytes)/1024/1024, r.PRTimeMs,
			r.RunningNFBeforeBps/1e9, r.RunningNFDuringBps/1e9)
		if r.PRTimeMs < 10 || r.PRTimeMs > 60 {
			t.Errorf("%s: PR time %.1fms outside the paper's tens-of-ms band (23-35ms)", r.Module, r.PRTimeMs)
		}
		// §V-E: "There is no throughput degradation of the running NF".
		if r.RunningNFBeforeBps > 0 {
			rel := r.RunningNFDuringBps / r.RunningNFBeforeBps
			if rel < 0.99 {
				t.Errorf("%s: running NF degraded to %.1f%% during PR", r.Module, rel*100)
			}
		}
	}
	// PR time proportional to bitstream size (Table V).
	if rows[0].BitstreamBytes < rows[1].BitstreamBytes && rows[0].PRTimeMs >= rows[1].PRTimeMs {
		t.Errorf("PR time not proportional to bitstream size: %+v", rows)
	}
}

func TestTable6Shape(t *testing.T) {
	res, err := runTable6()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		t.Logf("%-18s %6d LUTs (%5.2f%%)  %4d BRAM (%5.2f%%)  %6.2f Gbps  %3d cycles",
			row.Name, row.LUTs, row.LUTsPct, row.BRAM, row.BRAMPct, row.Gbps, row.DelayCycles)
	}
	// §V-F packing bounds.
	if res.MaxIPsecCrypto != 5 {
		t.Errorf("ipsec-crypto packing bound %d, paper reports 5", res.MaxIPsecCrypto)
	}
	if res.MaxPatternMatching != 2 {
		t.Errorf("pattern-matching packing bound %d, paper reports 2", res.MaxPatternMatching)
	}
	// Table VI percentages.
	ipsec := res.Rows[0]
	if ipsec.Name != hwfunc.IPsecCryptoName || ipsec.LUTs != 9464 || ipsec.BRAM != 242 {
		t.Errorf("ipsec-crypto row mismatch: %+v", ipsec)
	}
	if ipsec.LUTsPct < 2.1 || ipsec.LUTsPct > 2.3 {
		t.Errorf("ipsec-crypto LUT%% = %.2f, paper reports 2.18", ipsec.LUTsPct)
	}
}

// TestTable7Counts holds Table VII to the source it counts: every entry of
// both inventories is a whole line of the file it names, and the table
// prints the lengths of those inventories.
func TestTable7Counts(t *testing.T) {
	lines := map[string]map[string]bool{}
	for i, inv := range [][]locEntry{ipsecDHLLoC, nidsDHLLoC} {
		for _, e := range inv {
			if lines[e.file] == nil {
				raw, err := os.ReadFile("../../" + e.file)
				if err != nil {
					t.Fatal(err)
				}
				lines[e.file] = map[string]bool{}
				for _, l := range strings.Split(string(raw), "\n") {
					lines[e.file][strings.TrimSpace(l)] = true
				}
			}
			if !lines[e.file][e.stmt] {
				t.Errorf("%s has no line %q", e.file, e.stmt)
			}
		}
		r := runTable7()[i]
		t.Logf("%-18s %d LoC", r.Module, r.LoC)
		if r.LoC != len(inv) {
			t.Errorf("%s: Table VII prints %d LoC, its inventory has %d entries", r.Module, r.LoC, len(inv))
		}
		if r.LoC < 5 || r.LoC > 40 {
			t.Errorf("%s: %d LoC outside the paper's tens-of-lines band", r.Module, r.LoC)
		}
	}
}

// TestExperimentTable holds the experiment table to the docs that index it.
// Every row's IDs have a "## <ID> —" heading in EXPERIMENTS.md. Every line
// of DESIGN.md §4 names, in its "Regenerated by" cell, `dhl-bench <Name>`
// of the row carrying each of its IDs, no other dhl-bench target, and no
// Benchmark function the repository does not have. Names are unique and
// lower-case.
func TestExperimentTable(t *testing.T) {
	rowOf := map[string]Experiment{}
	names := map[string]bool{"all": true} // the runner's own word
	for _, e := range experiments {
		if e.Name != strings.ToLower(e.Name) || names[e.Name] {
			t.Errorf("row name %q is not lower-case and unique", e.Name)
		}
		names[e.Name] = true
		if e.Title == "" || e.run == nil || len(e.IDs) == 0 {
			t.Errorf("row %s lacks a title, a run function or IDs", e.Name)
		}
		for _, id := range e.IDs {
			if other, dup := rowOf[id]; dup {
				t.Errorf("%s is regenerated by both %s and %s", id, other.Name, e.Name)
			}
			rowOf[id] = e
		}
	}

	read := func(path string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	idRE := regexp.MustCompile(`[EAT][0-9]+`)
	headings := map[string]bool{}
	for _, h := range regexp.MustCompile(`(?m)^## ([EAT][0-9]+(?:/[EAT][0-9]+)*) — `).FindAllStringSubmatch(read("../../EXPERIMENTS.md"), -1) {
		for _, id := range idRE.FindAllString(h[1], -1) {
			headings[id] = true
		}
	}
	for id, e := range rowOf {
		if !headings[id] {
			t.Errorf("row %s regenerates %s, which has no \"## %s —\" heading in EXPERIMENTS.md", e.Name, id, id)
		}
	}

	_, section, found := strings.Cut(read("../../DESIGN.md"), "\n## 4. ")
	if !found {
		t.Fatal("DESIGN.md has no section 4")
	}
	_, index, found := strings.Cut(section, "| Regenerated by |\n|---|---|---|---|---|\n")
	if !found {
		t.Fatal("DESIGN.md §4 has no per-experiment index")
	}
	index, _, _ = strings.Cut(index, "\n\n")
	benchmarks := benchmarkFuncs(t, "../..")
	targetRE := regexp.MustCompile("`dhl-bench ([a-z0-9]+)`")
	benchRE := regexp.MustCompile(`Benchmark[A-Za-z0-9_*]+`)
	indexed := map[string]bool{}
	for _, line := range strings.Split(index, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 7 {
			t.Fatalf("malformed §4 line %q", line)
		}
		label, _, _ := strings.Cut(cells[1], ":")
		by := cells[5]
		allowed := map[string]bool{}
		for _, id := range idRE.FindAllString(label, -1) {
			indexed[id] = true
			if e, ok := rowOf[id]; ok {
				allowed[e.Name] = true
				if !strings.Contains(by, "`dhl-bench "+e.Name+"`") {
					t.Errorf("DESIGN.md §4 %s: \"Regenerated by\" is %q, want `dhl-bench %s`", id, strings.TrimSpace(by), e.Name)
				}
			}
		}
		for _, m := range targetRE.FindAllStringSubmatch(by, -1) {
			if !allowed[m[1]] {
				t.Errorf("DESIGN.md §4 %s names `dhl-bench %s`, which is not the row carrying it", strings.TrimSpace(label), m[1])
			}
		}
		for _, name := range benchRE.FindAllString(by, -1) {
			pattern := regexp.MustCompile("^" + strings.ReplaceAll(name, "*", `\w*`) + "$")
			if !slices.ContainsFunc(benchmarks, pattern.MatchString) {
				t.Errorf("DESIGN.md §4 %s names %s, which no _test.go file declares", strings.TrimSpace(label), name)
			}
		}
	}
	for id, e := range rowOf {
		if !indexed[id] {
			t.Errorf("row %s regenerates %s, which DESIGN.md §4 does not index", e.Name, id)
		}
	}
}

// benchmarkFuncs lists every Benchmark function declared under root.
func benchmarkFuncs(t *testing.T, root string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	var names []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == ".git" {
			return fs.SkipDir
		}
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		raw, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(raw, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestRunMultiNFReportsSimSteps checks that a multi-NF run reports what
// it cost the simulator, as the other runs do: four generators, four I/O
// cores and the runtime's transfer cores take steps of every kind.
func TestRunMultiNFReportsSimSteps(t *testing.T) {
	res, err := RunMultiNF(MultiNFConfig{
		FrameSize: 512, Warmup: 50 * eventsim.Microsecond, Window: 50 * eventsim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sim
	processed := st.HeapEvents + st.Finishes + st.ParkedRuns
	t.Logf("%d steps processed (%+v)", processed, st)
	if st.HeapEvents == 0 || st.Finishes == 0 || st.ParkedRuns == 0 || st.PollsSkipped == 0 {
		t.Errorf("a step kind is missing from the multi-NF run's Sim: %+v", st)
	}
	if res.NF1.Pkts+res.NF2.Pkts == 0 {
		t.Errorf("no packet carried in the window, yet %d steps processed", processed)
	}
}

// TestRunMultiNFSharesSADB pins what Figure 7(a) is a figure of: two
// instances of one gateway, built on one SADB. A second SADB would not
// move a virtual number; it would be paid for in every run's set-up.
func TestRunMultiNFSharesSADB(t *testing.T) {
	sadbOf := func(app dhlNF) uintptr {
		gw, ok := app.(*nf.IPsecGatewayDHL)
		if !ok {
			t.Fatalf("%T is not an IPsec gateway", app)
		}
		f := reflect.ValueOf(gw).Elem().FieldByName("sadb")
		if !f.IsValid() {
			t.Fatal("nf.IPsecGatewayDHL has no sadb field to compare")
		}
		return f.Pointer()
	}
	for _, shared := range []bool{true, false} {
		tb, err := newTestbed(0)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := tb.newRuntime(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		apps, err := multiNFApps(rt, shared)
		if err != nil {
			t.Fatal(err)
		}
		if !shared {
			if _, ok := apps[1].(*nf.NIDSDHL); !ok {
				t.Errorf("Figure 7(b)'s second NF is a %T, want the NIDS", apps[1])
			}
			continue
		}
		if a, b := sadbOf(apps[0]), sadbOf(apps[1]); a != b {
			t.Errorf("Figure 7(a)'s gateways have an SADB each (%#x, %#x)", a, b)
		}
	}
}
