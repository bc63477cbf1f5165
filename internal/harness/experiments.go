package harness

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// Experiment is one row of the evaluation: something cmd/dhl-bench
// regenerates and prints in the paper's layout.
type Experiment struct {
	// Name is the cmd/dhl-bench target.
	Name string
	// IDs are the EXPERIMENTS.md headings the row regenerates; DESIGN.md §4
	// indexes them.
	IDs []string
	// Title is the row's "=== … ===" line.
	Title string
	// run runs the row's points and prints them to w; quick asks for
	// shorter measurement windows where the row has them.
	run func(w io.Writer, quick bool) error
}

// experiments is the evaluation, in the order `dhl-bench all` prints it and
// bench_full_output.txt records it. Adding an experiment is one row here
// plus its EXPERIMENTS.md heading and DESIGN.md §4 line
// (TestExperimentTable holds the three together).
var experiments = []Experiment{
	{"table1", []string{"E1"}, "Table I: performance of DPDK with one CPU core (64B, 10G NIC)", fixed(table1)},
	{"fig4", []string{"E2"}, "Figure 4: packet DMA engine performance (PCIe Gen3 x8)", fixed(figure4)},
	{"fig6", []string{"E3", "E4"}, "Figure 6: single NF throughput and latency (40G NIC, 4 cores)", figure6},
	{"fig7", []string{"E5", "E6"}, "Figure 7: multiple NFs (4x10G ports, shared FPGA)", figure7},
	{"table5", []string{"E7"}, "Table V: reconfiguration time of accelerator modules", fixed(table5)},
	{"table6", []string{"E8"}, "Table VI: accelerator modules and static region utilization", fixed(table6)},
	{"table7", []string{"E9"}, "Table VII: lines of code to shift the CPU-only NF into DHL", fixed(table7)},
	{"ablation", []string{"A1", "A2", "A3"}, "Ablation A1: transfer batching policy (DHL IPsec, 512B frames)", ablation},
	{"telemetry", []string{"T2"}, "Telemetry: per-stage latency breakdown (DHL IPsec, 512B, 80% capacity)", stageBreakdown},
	{"flowscale", []string{"T3"}, "Flow scale: stateful firewall, Zipf+churn, flows vs goodput (40G, 128B)", flowScale},
	{"boardfailover", []string{"T4"}, "Board failover: whole-board loss, live migration vs warm replica", boardFailover},
	{"diurnal", []string{"T5"}, "Diurnal sweep: adaptive batching autotuner vs fixed 6 KB (DHL IPsec, 1024B)", diurnal},
}

// Experiments returns the table in order.
func Experiments() []Experiment { return append([]Experiment(nil), experiments...) }

// Regenerate runs the named experiments, each once, in table order, and
// prints each under its title to w. "all", or no target at all, is every
// row. Names are matched without regard to case.
func Regenerate(w io.Writer, quick bool, targets ...string) error {
	names := make([]string, len(experiments))
	known := map[string]bool{"all": true}
	for i, e := range experiments {
		names[i] = e.Name
		known[e.Name] = true
	}
	want := make(map[string]bool, len(targets))
	for _, t := range targets {
		t = strings.ToLower(t)
		if !known[t] {
			return fmt.Errorf("unknown target %q (want %s|all)", t, strings.Join(names, "|"))
		}
		want[t] = true
	}
	all := len(targets) == 0 || want["all"]
	// One section at a time reaches w, so a minute-long `all` shows its
	// progress, and a failed write stops the run at the section it hit.
	out := bufio.NewWriter(w)
	for _, e := range experiments {
		if !all && !want[e.Name] {
			continue
		}
		header(out, e.Title)
		err := e.run(out, quick)
		if err == nil {
			err = out.Flush()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// fixed is a row -quick runs as it is, because it has no window to shorten
// or cannot shorten the one it has; each such row says which.
func fixed(run func(io.Writer) error) func(io.Writer, bool) error {
	return func(w io.Writer, _ bool) error { return run(w) }
}

// quickWindows is where -quick is decided for every single-NF point
// (Figure 6, A1, the stage breakdown): 2 + 6 ms in place of the default
// 4 + 20 ms. Shapes are unaffected; throughput converges within ~5 ms of
// virtual time.
func quickWindows(quick bool, cfg SingleNFConfig) SingleNFConfig {
	if quick {
		cfg.Warmup = 2 * eventsim.Millisecond
		cfg.Window = 6 * eventsim.Millisecond
	}
	return cfg
}

// table1 has no quick variant: a row is 12 ms on one core, a tenth of a
// quick Figure 6 point.
func table1(w io.Writer) error {
	fmt.Fprintf(w, "%-16s %-24s %s\n", "Network Function", "Latency (cpu cycles)", "Throughput")
	for _, row := range table1Rows {
		r, err := runTable1Row(row)
		if err != nil {
			return fmt.Errorf("%v: %w", row, err)
		}
		fmt.Fprintf(w, "%-16s %-24.0f %.2f Gbps (wire %.2f)\n",
			r.NF, r.CyclesPerPkt, r.Throughput.InputBps/1e9, r.Throughput.WireBps/1e9)
	}
	return nil
}

// figure4 has no quick variant: the in-kernel series needs its 200 ms for
// steady state to outweigh the ~10 ms the pipeline takes to fill.
func figure4(w io.Writer) error {
	order := []dmaVariant{dmaInKernel, dmaRemoteNUMA, dmaLocalNUMA}
	fmt.Fprintf(w, "%-10s", "size")
	for _, v := range order {
		fmt.Fprintf(w, " | %-22v", v)
	}
	fmt.Fprintf(w, "\n%-10s", "")
	for range order {
		fmt.Fprintf(w, " | %10s %11s", "Gbps", "RTT(us)")
	}
	fmt.Fprintln(w)
	for _, size := range transferSizes {
		fmt.Fprintf(w, "%-10s", sizeLabel(size))
		for _, v := range order {
			r, err := runDMALoopback(v, size)
			if err != nil {
				return fmt.Errorf("%v/%dB: %w", v, size, err)
			}
			fmt.Fprintf(w, " | %10.2f %11.2f", r.ThroughputBps/1e9, r.LatencyUs)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func sizeLabel(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}

func figure6(w io.Writer, quick bool) error {
	for _, kind := range []NFKind{IPsecGateway, NIDS} {
		fmt.Fprintf(w, "\n-- %v --\n", kind)
		fmt.Fprintf(w, "%-7s | %-21s | %-21s | %-12s\n", "size", "CPU-only", "DHL", "I/O")
		fmt.Fprintf(w, "%-7s | %9s %11s | %9s %11s | %9s\n", "", "Gbps", "lat(us)", "Gbps", "lat(us)", "Gbps")
		for _, size := range frameSizes {
			point := func(mode Mode) SingleNFConfig {
				return quickWindows(quick, SingleNFConfig{Kind: kind, Mode: mode, FrameSize: size})
			}
			cpuThr, cpuLat, err := MeasureSingleNF(point(CPUOnly))
			if err != nil {
				return err
			}
			dhlThr, dhlLat, err := MeasureSingleNF(point(DHL))
			if err != nil {
				return err
			}
			ioThr, err := RunSingleNF(point(IOOnly))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-7d | %9.2f %11.2f | %9.2f %11.2f | %9.2f\n",
				size,
				cpuThr.Throughput.InputBps/1e9, cpuLat.Latency.MeanUs,
				dhlThr.Throughput.InputBps/1e9, dhlLat.Latency.MeanUs,
				ioThr.Throughput.InputBps/1e9)
		}
	}
	fmt.Fprintln(w, "\nClickNP comparison (reported values, Fig. 6(a)/(b)): ~37-40 Gbps across sizes,")
	fmt.Fprintln(w, "latency higher than DHL's; not reproducible (closed source), see EXPERIMENTS.md.")
	return nil
}

func figure7(w io.Writer, quick bool) error {
	win := 20 * eventsim.Millisecond
	if quick {
		win = 8 * eventsim.Millisecond
	}
	fmt.Fprintf(w, "%-7s | %-23s | %-23s\n", "size", "(a) IPsec1 / IPsec2", "(b) IPsec / NIDS")
	for _, size := range frameSizes {
		a, err := RunMultiNF(MultiNFConfig{SharedAccelerator: true, FrameSize: size, Window: win})
		if err != nil {
			return err
		}
		b, err := RunMultiNF(MultiNFConfig{SharedAccelerator: false, FrameSize: size, Window: win})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-7d | %9.2f / %9.2f   | %9.2f / %9.2f   (Gbps wire)\n",
			size, a.NF1.WireBps/1e9, a.NF2.WireBps/1e9, b.NF1.WireBps/1e9, b.NF2.WireBps/1e9)
	}
	return nil
}

// table5 has no quick variant: the second window must cover a whole
// partial reconfiguration, 36 ms for the larger bitstream.
func table5(w io.Writer) error {
	rows, err := runTable5()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-18s %-10s %s\n", "Accelerator", "PR Bitstream", "PR Time", "Running NF (before -> during)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-18s %-10s %.2f -> %.2f Gbps\n",
			r.Module, fmt.Sprintf("%.1f MB", float64(r.BitstreamBytes)/1024/1024),
			fmt.Sprintf("%.0f ms", r.PRTimeMs),
			r.RunningNFBeforeBps/1e9, r.RunningNFDuringBps/1e9)
	}
	return nil
}

// table6 has no quick variant: it reads the resource model and runs no
// traffic.
func table6(w io.Writer) error {
	res, err := runTable6()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-18s %-18s %-12s %s\n", "Module", "LUTs", "BRAM", "Throughput", "Delay")
	for _, r := range res.Rows {
		thr, delay := "N/A", "N/A"
		if r.Gbps > 0 {
			thr = fmt.Sprintf("%.2f Gbps", r.Gbps)
			delay = fmt.Sprintf("%d cycles", r.DelayCycles)
		}
		fmt.Fprintf(w, "%-18s %-18s %-18s %-12s %s\n", r.Name,
			fmt.Sprintf("%d (%.2f%%)", r.LUTs, r.LUTsPct),
			fmt.Sprintf("%d (%.2f%%)", r.BRAM, r.BRAMPct), thr, delay)
	}
	fmt.Fprintf(w, "packing bound: %d x ipsec-crypto or %d x pattern-matching per board\n",
		res.MaxIPsecCrypto, res.MaxPatternMatching)
	return nil
}

// table7 has no quick variant: it counts statements and runs nothing.
func table7(w io.Writer) error {
	for _, r := range runTable7() {
		fmt.Fprintf(w, "%-18s %d LoC\n", r.Module, r.LoC)
	}
	return nil
}

func ablation(w io.Writer, quick bool) error {
	// A1 sweeps the transfer batching policy — fixed batch sizes around
	// §IV-A3's 6 KB choice, plus §VI.2's adaptive proposal — at a high-load
	// and a low-load operating point.
	batchingPolicies := []struct {
		label    string
		bytes    int
		adaptive bool
	}{
		{"fixed-512B", 512, false},
		{"fixed-1KB", 1024, false},
		{"fixed-2KB", 2048, false},
		{"fixed-6KB", perf.DefaultBatchBytes, false},
		{"fixed-16KB", 16 * 1024, false},
		{"adaptive", perf.DefaultBatchBytes, true},
	}
	fmt.Fprintf(w, "%-12s %-8s %-12s %-12s\n", "policy", "load", "Gbps", "lat(us)")
	for _, load := range []float64{1.0, 0.05} {
		for _, p := range batchingPolicies {
			cfg := quickWindows(quick, SingleNFConfig{
				Kind: IPsecGateway, Mode: DHL, FrameSize: 512,
				OfferedWireBps: load * perf.NIC40GBps, BatchBytes: p.bytes,
			})
			if p.adaptive {
				cfg.Batching = core.AdaptiveBatching
			}
			r, err := RunSingleNF(cfg)
			if err != nil {
				return fmt.Errorf("batching ablation %s: %w", p.label, err)
			}
			fmt.Fprintf(w, "%-12s %-8s %-12.2f %-12.2f\n", p.label,
				fmt.Sprintf("%.0f%%", load*100), r.Throughput.InputBps/1e9, r.Latency.MeanUs)
		}
	}

	// A2 has no quick variant: the in-kernel driver's round trip is 10 ms,
	// so a 2 + 6 ms point delivers nothing, and the three rows are one
	// comparison, measured alike.
	header(w, "Ablation A2: driver mode / NUMA placement (DHL IPsec, 512B)")
	drv, err := runDriverAblation()
	if err != nil {
		return err
	}
	for _, r := range drv {
		fmt.Fprintf(w, "%-20s %8.2f Gbps   %8.2f us\n", r.Label, r.Throughput.InputBps/1e9, r.Latency.MeanUs)
	}

	// A3 has no quick variant: three 10 ms loopback streams.
	header(w, "Ablation A3: vertical scaling (§VI.1)")
	vert, err := runVerticalScaling()
	if err != nil {
		return err
	}
	for _, r := range vert {
		fmt.Fprintf(w, "%-22s %8.2f Gbps aggregate DMA ceiling\n", r.Label, r.AggregateGbps)
	}
	return nil
}

// stageBreakdown measures the DHL IPsec gateway's capacity at 512B frames,
// replays the run at 80% of that load with the stage clock armed, and
// prints where each batch's time goes: the EXPERIMENTS.md per-stage
// latency breakdown.
func stageBreakdown(w io.Writer, quick bool) error {
	capRes, err := RunSingleNF(quickWindows(quick, SingleNFConfig{
		Kind: IPsecGateway, Mode: DHL, FrameSize: 512}))
	if err != nil {
		return err
	}
	capBps := capRes.Throughput.WireBps
	tel := telemetry.New(0)
	res, err := RunSingleNF(quickWindows(quick, SingleNFConfig{
		Kind: IPsecGateway, Mode: DHL, FrameSize: 512,
		OfferedWireBps: 0.8 * capBps, Telemetry: tel}))
	if err != nil {
		return err
	}
	snap := tel.Snapshot()
	fmt.Fprintf(w, "capacity %.2f Gbps wire; offered %.2f Gbps (80%%), carried %.2f Gbps\n",
		capBps/1e9, 0.8*capBps/1e9, res.Throughput.WireBps/1e9)
	fmt.Fprintf(w, "%d batches, %d packets, %d bytes through the FPGA chain\n",
		snap.CounterTotal(telemetry.CounterBatches), snap.CounterTotal(telemetry.CounterPackets),
		snap.CounterTotal(telemetry.CounterBytes))
	fmt.Fprintf(w, "%-12s %9s %10s %10s %10s\n", "stage", "count", "p50(ns)", "p99(ns)", "mean(ns)")
	for s := telemetry.StageIBQWait; s < telemetry.NumStages; s++ {
		h := snap.Stages[s]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-12s %9d %10.0f %10.0f %10.0f\n",
			s, h.Count, h.QuantileNs(0.50), h.QuantileNs(0.99), h.MeanNs())
	}
	fmt.Fprintf(w, "%-12s %9d %10.0f %10.0f %10.0f  (pcie service)\n",
		"dma_h2c", snap.DMAH2C.Count, snap.DMAH2C.QuantileNs(0.50), snap.DMAH2C.QuantileNs(0.99), snap.DMAH2C.MeanNs())
	fmt.Fprintf(w, "%-12s %9d %10.0f %10.0f %10.0f  (pcie service)\n",
		"dma_c2h", snap.DMAC2H.Count, snap.DMAC2H.QuantileNs(0.50), snap.DMAC2H.QuantileNs(0.99), snap.DMAC2H.MeanNs())
	fmt.Fprintf(w, "%-12s %9d %10.0f %10.0f %10.0f  (dispatcher service)\n",
		"dispatch", snap.Dispatch.Count, snap.Dispatch.QuantileNs(0.50), snap.Dispatch.QuantileNs(0.99), snap.Dispatch.MeanNs())
	return nil
}

// flowScale sweeps the stateful flow-aware firewall across flow
// populations from 10k to 2M under Zipf traffic with churn: the
// flows-vs-goodput and bytes-per-flow series. Every point must account
// for every generated frame.
func flowScale(w io.Writer, quick bool) error {
	cfg := FlowScaleConfig{
		ZipfSkew:       1.1,
		ChurnPerSec:    2e6,
		Window:         30 * eventsim.Millisecond,
		FlowTTL:        20 * eventsim.Millisecond,
		MemBudgetBytes: 512 << 20,
	}
	if quick {
		cfg.Window = 6 * eventsim.Millisecond
		cfg.FlowTTL = 5 * eventsim.Millisecond
	}
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %12s %10s\n",
		"flows", "Gbps", "hit rate", "entries", "B/flow", "mem", "evicted")
	for _, flows := range []int{10_000, 100_000, 1_000_000, 2_000_000} {
		cfg.Flows = flows
		r, err := RunFlowScale(cfg)
		if err == nil {
			err = r.CheckConservation()
		}
		if err != nil {
			return fmt.Errorf("%d flows: %w", flows, err)
		}
		table := r.Tables[0].Stats
		fmt.Fprintf(w, "%-10d %10.2f %10.3f %10d %10.1f %12d %10d\n",
			flows, r.Throughput.GoodBps/1e9, r.HitRate, table.Entries,
			r.BytesPerFlow, table.MemBytes, table.EvictedIdle+table.EvictedPressure)
	}
	return nil
}

func boardFailover(w io.Writer, quick bool) error {
	cfg := FailoverConfig{}
	if quick {
		cfg.Buckets = 30
	}
	res, err := RunBoardFailover(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline goodput: %.1f Mbps (two-board fleet, ipsec-crypto)\n\n", res.BaselineGoodBps/1e6)
	fmt.Fprintf(w, "%-24s %10s %10s %12s %8s %12s\n",
		"run", "MTTR(us)", "min(Mbps)", "recov(Mbps)", "board", "migrated-in")
	for _, run := range []*BoardFailoverRun{&res.Baseline, &res.NoReplica, &res.Replica} {
		fmt.Fprintf(w, "%-24s %10.0f %10.1f %12.1f %8d %12d\n",
			run.Label, run.MTTRUs, run.MinRateBps/1e6, run.RecoveredGoodBps/1e6,
			run.FinalBoard, run.MigratedIn)
	}
	fmt.Fprintln(w, "\nMTTR 0 = no measurable outage; the replica run's board loss is absorbed")
	fmt.Fprintln(w, "by an instant routing-table promotion, while the no-replica run pays the")
	fmt.Fprintln(w, "~29 ms ICAP re-place of the 5.6 MB ipsec bitstream on the surviving board.")
	return nil
}

// diurnal runs the T5 diurnal load sweep: the same DHL IPsec gateway under
// a peak/trough offered-load swing, fixed 6 KB batching vs. the adaptive
// batching autotuner, with the gate ratios T5's acceptance criteria check.
func diurnal(w io.Writer, quick bool) error {
	cfg := DiurnalConfig{}
	if quick {
		cfg.Warmup = 2 * eventsim.Millisecond
		cfg.Window = 5 * eventsim.Millisecond
	}
	cmp, err := runDiurnalComparison(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "offered: peak %.0f Gbps, trough %.1f Gbps (burst 1, %.0f ms windows)\n\n",
		cmp.Fixed.Config.PeakWireBps/1e9, cmp.Fixed.Config.TroughWireBps/1e9, cmp.Fixed.Config.Window.Seconds()*1e3)
	fmt.Fprintf(w, "%-12s | %-28s | %-28s\n", "", "peak", "trough")
	fmt.Fprintf(w, "%-12s | %9s %8s %8s | %9s %8s %8s\n", "run", "Gbps", "p50(us)", "p99(us)", "Gbps", "p50(us)", "p99(us)")
	for _, s := range []struct {
		label string
		run   *DiurnalResult
	}{{"fixed-6KB", &cmp.Fixed}, {"autotuned", &cmp.Tuned}} {
		peak, trough := s.run.Peak, s.run.Trough
		fmt.Fprintf(w, "%-12s | %9.2f %8.2f %8.2f | %9.3f %8.2f %8.2f\n",
			s.label, peak.Throughput.GoodBps/1e9, peak.Latency.P50Us, peak.Latency.P99Us,
			trough.Throughput.GoodBps/1e9, trough.Latency.P50Us, trough.Latency.P99Us)
	}
	fmt.Fprintf(w, "\ngates: peak goodput ratio %.3f (>= 0.98), trough p99 cut %.0f%% (>= 30%%), silent drops %d (= 0)\n",
		cmp.PeakGoodputRatio, cmp.TroughP99Cut*100, cmp.Fixed.SilentDrops+cmp.Tuned.SilentDrops)
	fmt.Fprintf(w, "tuner: %d windows, %d grow / %d shrink decisions\n",
		cmp.Tuned.Tuner.Windows, cmp.Tuned.Tuner.GrowDecisions, cmp.Tuned.Tuner.ShrinkDecisions)
	return nil
}
