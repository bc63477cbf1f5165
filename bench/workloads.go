package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	dhl "github.com/opencloudnext/dhl-go"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/harness"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// phase is what one call into the system under test reports back.
type phase struct {
	// pkts is the per-packet denominator: packets delivered in the
	// call's measurement window.
	pkts      uint64
	attempted uint64 // packets offered
	failed    uint64 // packets wrong or unaccounted (never attributed overload drops)
	// cpu is set by a workload that times a sub-region itself
	// (offload_rt64 keeps system construction outside it); zero means
	// the runner's clock around the whole call is the measurement.
	cpu time.Duration
	// virtual holds the virtual-clock and count metrics this phase
	// defines, by end-to-end metric name. They must not differ between
	// reps.
	virtual    map[string]float64
	latSamples uint64
	// counts holds per-layer counts read from the call's own result.
	counts   map[string]float64
	problems []string
}

// runCtx is what a workload's calls see of the run.
type runCtx struct {
	o options
	// rate and warmPhase are drawn from -seed. The harness-driven
	// workloads take no seed of their own (netdev.Generator hard-codes
	// its flow and Zipf streams), so the seed draws their offered-rate
	// factor (1 - up to 2e-4) and a sub-microsecond warm-up offset: same
	// seed, same inputs; another seed, a slightly different sample of
	// the same operating point.
	rate      float64
	warmPhase eventsim.Time
	// tel is non-nil while a traced call should arm the telemetry probe
	// the harness or facade offers.
	tel *telemetry.Registry
	tr  *tracer
}

func newRunCtx(o options) *runCtx {
	rng := rand.New(rand.NewSource(o.seed))
	return &runCtx{o: o, rate: 1 - rng.Float64()*2e-4, warmPhase: eventsim.Time(rng.Int63n(int64(eventsim.Microsecond)))}
}

// win is a measurement window: d, or 1 ms under -smoke.
func (c *runCtx) win(d eventsim.Time) eventsim.Time {
	if c.o.smoke {
		return eventsim.Millisecond
	}
	return d
}

func (c *runCtx) warmup() eventsim.Time { return 2*eventsim.Millisecond + c.warmPhase }

// workload is one row of the README's workload table.
type workload struct {
	Name string
	Loop string // "open": paced generator; "closed": one client waiting for each reply
	Why  string
	// setup performs one set-up pass: build the workload's system and
	// bring it ready for traffic, then discard it.
	setup func(c *runCtx) error
	// op runs the fixed sub-capacity latency phase once. It runs before
	// the timed reps and doubles as the untimed warm-up. Nil: the
	// workload reads latency from its reps and warms up with one of them.
	op func(c *runCtx) (phase, error)
	// rep is one timed rep.
	rep func(c *runCtx) (phase, error)
}

var workloads = []workload{
	singleNF("ipsec64", 64, 10*eventsim.Millisecond, 15e9,
		"per-packet cost dominates: ring, mbuf, 64 B dhlproto records, Packer/Distributor, event engine; the paper's headline point"),
	singleNF("ipsec1500", 1500, 20*eventsim.Millisecond, 30e9,
		"per-byte cost dominates: real AES-256-CTR + HMAC-SHA1 and record copies; a per-packet optimisation should show almost nothing here"),
	{
		Name: "mixed512", Loop: "open",
		Why:   "two NFs, two modules on one FPGA: Dispatcher routing, multi-producer IBQ, per-NF OBQ isolation; the only workload where the NIDS path works",
		setup: func(c *runCtx) error { _, err := runMixed(c, eventsim.Microsecond); return err },
		op: func(c *runCtx) (phase, error) {
			return runSingle(c, harness.NIDS, 512, 15e9, c.win(10*eventsim.Millisecond), true)
		},
		rep: func(c *runCtx) (phase, error) { return runMixed(c, c.win(20*eventsim.Millisecond)) },
	},
	{
		Name: "fw_flows1m", Loop: "open",
		Why:   "bypasses the DHL runtime: flow firewall over 1 M Zipf flows with churn, working set far beyond the CPU cache; core/pcie/fpga/hwfunc changes must not show",
		setup: func(c *runCtx) error { _, err := runFlowScale(c, eventsim.Microsecond); return err },
		op:    runFlowFwOp,
		rep:   func(c *runCtx) (phase, error) { return runFlowScale(c, c.win(20*eventsim.Millisecond)) },
	},
	{
		Name: "diurnal", Loop: "open",
		Why:   "the same Packer and event engine used the other way round: flush by timeout, idle pollers, tuner in the loop; pairs with ipsec64",
		setup: func(c *runCtx) error { _, err := runDiurnal(c, eventsim.Microsecond); return err },
		rep:   func(c *runCtx) (phase, error) { return runDiurnal(c, c.win(40*eventsim.Millisecond)) },
	},
	{
		Name: "offload_rt64", Loop: "closed",
		Why:   "the Table II API as an NF developer calls it, no NIC or harness: isolates core + eventsim + pcie/fpga models and exposes events_per_pkt",
		setup: func(c *runCtx) error { _, _, _, err := openLoopback(false); return err },
		rep:   func(c *runCtx) (phase, error) { return runOffload(c, c.offloadBursts()) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- harness-driven workloads (open loop: a paced generator) -----------

// singleNF is the IPsec gateway on DHL at one frame size: saturation at
// 40 G for goodput and host cost, a fixed sub-capacity rate for latency.
func singleNF(name string, frame int, satWindow eventsim.Time, opWireBps float64, why string) workload {
	return workload{
		Name: name, Loop: "open", Why: why,
		setup: func(c *runCtx) error {
			_, err := runSingle(c, harness.IPsecGateway, frame, perf.NIC40GBps, eventsim.Microsecond, false)
			return err
		},
		op: func(c *runCtx) (phase, error) {
			return runSingle(c, harness.IPsecGateway, frame, opWireBps, c.win(10*eventsim.Millisecond), true)
		},
		rep: func(c *runCtx) (phase, error) {
			return runSingle(c, harness.IPsecGateway, frame, perf.NIC40GBps, c.win(satWindow), false)
		},
	}
}

// runSingle is one harness.RunSingleNF call on the DHL path. A latency
// call runs below capacity, so any drop in it is a failure; at
// saturation the attributed drops are the measurement.
func runSingle(c *runCtx, kind harness.NFKind, frame int, wireBps float64, window eventsim.Time, latency bool) (phase, error) {
	res, err := harness.RunSingleNF(harness.SingleNFConfig{
		Kind: kind, Mode: harness.DHL, FrameSize: frame,
		OfferedWireBps: wireBps * c.rate,
		Warmup:         c.warmup(), Window: window,
		Telemetry: c.tel,
	})
	if err != nil {
		return phase{}, err
	}
	drops := res.RxDropped + res.TxDropped + res.NFDropped
	p := phase{
		pkts:      res.Throughput.Pkts,
		attempted: res.Throughput.Pkts + drops,
		failed:    res.Transfer.NFIDMismatches,
		counts:    transferCounts(res.Transfer),
	}
	if p.attempted > 0 {
		p.counts["netdev.rx_drop_share"] = float64(res.RxDropped) / float64(p.attempted)
	}
	if res.Transfer.NFIDMismatches > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d NFID mismatches", res.Transfer.NFIDMismatches))
	}
	if latency {
		p.virtual = map[string]float64{"lat_p50_us": res.Latency.P50Us, "lat_p99_us": res.Latency.P99Us}
		p.latSamples = res.Throughput.Pkts
		if drops > 0 {
			p.failed += drops
			p.problems = append(p.problems, fmt.Sprintf("latency phase below capacity dropped %d packets", drops))
		}
		if c.tel != nil {
			snap := c.tel.Snapshot()
			for s := telemetry.StageIBQWait; s < telemetry.NumStages; s++ {
				p.counts["core.stage."+s.String()+"_us"] = snap.Stages[s].MeanNs() / 1e3
			}
		}
	} else {
		p.virtual = map[string]float64{"goodput_gbps": res.Throughput.InputBps / 1e9}
	}
	return p, nil
}

// transferCounts reads the per-layer counts the runtime's transfer
// ledger exports.
func transferCounts(ts dhl.TransferStats) map[string]float64 {
	counts := map[string]float64{"core.ibq_rejected": float64(ts.IBQRejected)}
	if ts.BatchesSent > 0 {
		counts["core.batch_fill_bytes"] = float64(ts.BytesSent) / float64(ts.BatchesSent)
	}
	if flushes := ts.FlushBySize + ts.FlushByTimeout; flushes > 0 {
		counts["core.flush_timeout_share"] = float64(ts.FlushByTimeout) / float64(flushes)
	}
	return counts
}

// runMixed is Figure 7(b): an IPsec gateway and a NIDS, different
// modules, one FPGA, two 10 G ports each. RunMultiNF exposes no rate,
// so only the warm-up offset carries the seed.
func runMixed(c *runCtx, window eventsim.Time) (phase, error) {
	res, err := harness.RunMultiNF(harness.MultiNFConfig{
		SharedAccelerator: false, FrameSize: 512,
		Warmup: c.warmup(), Window: window,
	})
	if err != nil {
		return phase{}, err
	}
	pkts := res.NF1.Pkts + res.NF2.Pkts
	p := phase{
		pkts: pkts, attempted: pkts, failed: res.NFIDMismatches,
		virtual: map[string]float64{"goodput_gbps": (res.NF1.InputBps + res.NF2.InputBps) / 1e9},
	}
	if res.NFIDMismatches > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d NFID mismatches", res.NFIDMismatches))
	}
	return p, nil
}

const fwFlows = 1_000_000

// runFlowScale is the flow firewall on the CPU-only pipeline at 40 G.
func runFlowScale(c *runCtx, window eventsim.Time) (phase, error) {
	res, err := harness.RunFlowScale(harness.FlowScaleConfig{
		Flows: fwFlows, ZipfSkew: 1.2, ChurnPerSec: 1e6, FrameSize: 128,
		OfferedWireBps: perf.NIC40GBps * c.rate,
		Warmup:         c.warmup(), Window: window,
	})
	if err != nil {
		return phase{}, err
	}
	p := phase{
		pkts: res.Throughput.Pkts, attempted: res.GenSent,
		virtual: map[string]float64{
			"goodput_gbps":       res.Throughput.InputBps / 1e9,
			"mem_bytes_per_flow": res.BytesPerFlow,
		},
		counts: map[string]float64{"flowtab.hit_rate": res.HitRate},
	}
	if res.GenSent > 0 {
		p.counts["netdev.rx_drop_share"] = float64(res.RxDropped) / float64(res.GenSent)
	}
	if cerr := res.CheckConservation(); cerr != nil {
		p.failed++
		p.problems = append(p.problems, cerr.Error())
	}
	return p, nil
}

// runFlowFwOp is fw_flows1m's latency phase. harness.RunFlowScale
// reports no latency, so the bench puts the same flow firewall, fed the
// same 1 M-flow Zipf traffic with churn, on one run-to-completion core
// at a fixed 5 G (about 4.1 Mpps, a third of that core's capacity). The
// bench owns this simulator, so the phase also yields events_per_pkt.
func runFlowFwOp(c *runCtx) (phase, error) {
	sim := eventsim.New()
	fw := nf.NewFirewall(nf.FirewallAllow)
	// The deny rules of harness.RunFlowScale's ACL.
	for _, r := range []nf.FirewallRule{
		{SrcPrefix: 0x0A000005, SrcDepth: 32, Action: nf.FirewallDeny},
		{SrcPrefix: 0x0A000032, SrcDepth: 32, Action: nf.FirewallDeny},
		{SrcPrefix: 0x0A080000, SrcDepth: 13, Action: nf.FirewallDeny},
	} {
		if err := fw.AddRule(r); err != nil {
			return phase{}, err
		}
	}
	const ttl = 50 * eventsim.Millisecond
	ffw, err := nf.NewFlowFirewall(fw, nf.FlowFirewallConfig{FlowTTL: ttl, Clock: sim.Now})
	if err != nil {
		return phase{}, err
	}
	var tick func()
	tick = func() {
		ffw.Tick()
		sim.After(ttl/4, tick)
	}
	sim.After(ttl/4, tick)
	res, err := forward(sim, forwardConfig{
		frame: 128, wireBps: 5e9 * c.rate, flows: fwFlows, zipf: 1.2, churn: 1e6,
		warmup: c.warmup(), window: c.win(20 * eventsim.Millisecond),
		proc: ffw.Process, latency: true, burst: 1, coreHz: perf.TestbedCoreHz * c.rate,
	})
	if err != nil {
		return phase{}, err
	}
	p := phase{
		pkts: res.pkts, attempted: res.sent, latSamples: res.pkts,
		virtual: map[string]float64{
			"lat_p50_us":     res.p50Us,
			"lat_p99_us":     res.p99Us,
			"events_per_pkt": float64(res.events) / float64(max(res.pkts, 1)),
		},
	}
	// Below capacity every generated frame is delivered or denied by
	// the ACL; anything else is a failure.
	if lost := res.sent - res.forwarded - res.denied; lost != 0 || res.leaked != 0 {
		p.failed += lost + uint64(res.leaked)
		p.problems = append(p.problems, fmt.Sprintf("latency phase lost %d packets and leaked %d mbufs", lost, res.leaked))
	}
	return p, nil
}

// forwardConfig shapes one run of forward.
type forwardConfig struct {
	frame        int
	wireBps      float64
	flows        int
	zipf, churn  float64
	warmup       eventsim.Time
	window       eventsim.Time
	proc         func(*mbuf.Mbuf) (nf.Verdict, float64) // nil: I/O only
	latency      bool                                   // keep per-packet latency samples
	burst        int                                    // frames per generator wake-up (0: the generator's 32)
	coreHz       float64                                // 0: the testbed's 2.1 GHz
	poolCapacity int
}

type forwardResult struct {
	pkts         uint64 // delivered in the window
	p50Us, p99Us float64
	sent         uint64 // generated, lifetime
	forwarded    uint64 // transmitted, lifetime
	denied       uint64 // dropped by proc's verdict
	leaked       int
	events       uint64 // simulator events in the window
}

// forward runs generator -> RX port -> one polling core -> TX port on
// sim: the smallest forwarding path the netdev layer supports. It is
// fw_flows1m's latency phase (proc = the flow firewall) and the
// netdev.gen_rx_tx probe (proc = nil).
func forward(sim *eventsim.Sim, cfg forwardConfig) (forwardResult, error) {
	var res forwardResult
	if cfg.poolCapacity == 0 {
		cfg.poolCapacity = 4096
	}
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "bench-forward", Capacity: cfg.poolCapacity})
	if err != nil {
		return res, err
	}
	rx, err := netdev.NewPort(sim, netdev.PortConfig{ID: 0, RateBps: perf.NIC40GBps})
	if err != nil {
		return res, err
	}
	tx, err := netdev.NewPort(sim, netdev.PortConfig{ID: 1, RateBps: perf.NIC40GBps})
	if err != nil {
		return res, err
	}
	gen, err := netdev.NewGenerator(sim, netdev.GeneratorConfig{
		Port: rx, Pool: pool, FrameSize: cfg.frame, OfferedWireBps: cfg.wireBps, Burst: cfg.burst,
		Flows: cfg.flows, ZipfSkew: cfg.zipf, ChurnPerSec: cfg.churn,
	})
	if err != nil {
		return res, err
	}
	measStart := sim.Now() + cfg.warmup
	measEnd := measStart + cfg.window
	var latPs []float64
	var freeErr error
	in := make([]*mbuf.Mbuf, 32)
	out := make([]*mbuf.Mbuf, 0, 32)
	if cfg.coreHz == 0 {
		cfg.coreHz = perf.TestbedCoreHz
	}
	core := eventsim.NewCore(sim, 0, 0, cfg.coreHz)
	loop := eventsim.NewPollLoop(sim, core, perf.PollIdleCycles, func() (float64, func()) {
		n := rx.RxBurst(0, in)
		if n == 0 {
			return 0, nil
		}
		now := int64(sim.Now())
		cycles := float64(n) * (perf.IORxCycles + perf.IOTxCycles)
		out = out[:0]
		for _, m := range in[:n] {
			m.RxTimestamp = now
			if cfg.proc != nil {
				verdict, c := cfg.proc(m)
				cycles += c
				if verdict != nf.VerdictForward {
					res.denied++
					freeErr = errors.Join(freeErr, pool.Free(m))
					continue
				}
			}
			out = append(out, m)
		}
		return cycles, func() {
			// TxBurst keeps only a reservoir of its latency series;
			// the same readings (TX time minus RX stamp) kept here in
			// full let the quantiles interpolate between the discrete
			// cycle counts a CPU-only path produces.
			if now := sim.Now(); cfg.latency && now >= measStart && now < measEnd {
				for _, m := range out {
					latPs = append(latPs, float64(int64(now)-m.RxTimestamp))
				}
			}
			tx.TxBurst(out, pool)
		}
	})
	loop.Start()
	gen.Start()
	tx.SetMeasureWindow(measStart, measEnd)
	sim.Run(measStart)
	ev0 := sim.Processed()
	sim.Run(measEnd)
	res.events = sim.Processed() - ev0
	gen.Stop()
	sim.Run(measEnd + eventsim.Millisecond) // drain
	loop.Stop()

	_, _, res.pkts, _ = tx.Measured(measEnd)
	sort.Float64s(latPs)
	res.p50Us, res.p99Us = groupedQuantile(latPs, 0.50)/1e6, groupedQuantile(latPs, 0.99)/1e6
	res.sent = gen.Sent()
	res.forwarded = tx.Stats().TxFrames
	res.leaked = pool.InUse()
	return res, freeErr
}

// runDiurnal is the autotuned diurnal sweep: goodput from the 20 G peak
// phase, latency from the 0.4 G trough phase of the same call.
func runDiurnal(c *runCtx, window eventsim.Time) (phase, error) {
	res, err := harness.RunDiurnal(harness.DiurnalConfig{
		AutoTune: true, FrameSize: 1024,
		PeakWireBps: 20e9 * c.rate, TroughWireBps: 0.4e9 * c.rate,
		Warmup: 3*eventsim.Millisecond + c.warmPhase, Window: window,
	})
	if err != nil {
		return phase{}, err
	}
	pkts := res.Peak.Throughput.Pkts + res.Trough.Throughput.Pkts
	ts := res.Transfer
	p := phase{
		pkts: pkts, attempted: pkts + res.NFDropped + res.SilentDrops,
		failed:     res.SilentDrops + ts.NFIDMismatches,
		latSamples: res.Trough.Throughput.Pkts,
		virtual: map[string]float64{
			"goodput_gbps": res.Peak.Throughput.InputBps / 1e9,
			"lat_p50_us":   res.Trough.Latency.P50Us,
			"lat_p99_us":   res.Trough.Latency.P99Us,
		},
		counts: transferCounts(ts),
	}
	p.counts["tuner.windows"] = float64(res.Tuner.Windows)
	p.counts["tuner.decisions"] = float64(res.Tuner.GrowDecisions + res.Tuner.ShrinkDecisions)
	if p.failed > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d silent drops, %d NFID mismatches", res.SilentDrops, ts.NFIDMismatches))
	}
	return p, nil
}

// --- offload_rt64 (closed loop, 1 client) --------------------------------

// offloadBursts is the fixed length of one offload_rt64 rep. It is a
// count, not a duration, so the rep's virtual metrics depend on the seed
// alone and never on how fast the host is.
func (c *runCtx) offloadBursts() int {
	if c.o.smoke {
		return 50
	}
	return 20000
}

// openLoopback builds a system the way an NF developer would and brings
// the loopback hardware function ready: Open, Register, SearchByName,
// Settle (partial reconfiguration).
func openLoopback(tel bool) (*dhl.System, dhl.NFID, dhl.AccID, error) {
	sys, err := dhl.Open(dhl.SystemConfig{Telemetry: tel}, dhl.WithoutSettle())
	if err != nil {
		return nil, 0, 0, err
	}
	nfID, err := sys.Register("bench", 0)
	if err != nil {
		return nil, 0, 0, err
	}
	acc, err := sys.SearchByName(dhl.Loopback, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	sys.Settle()
	return sys, nfID, acc, nil
}

// runOffload is one closed-loop rep: on a fresh system, send a burst
// (length 1..32 in seeded order, 64 B seeded payload), step the simulator
// 1 us at a time polling ReceivePackets until the burst is back, verify
// the bytes, free, repeat. The CPU timer covers the burst loop only.
//
// A poll every 1 us observes each round trip to the microsecond it ended
// in; groupedQuantile interpolates inside that 1 us bin.
func runOffload(c *runCtx, bursts int) (phase, error) {
	sys, nfID, acc, err := openLoopback(c.tel != nil)
	if err != nil {
		return phase{}, err
	}
	sim, pool := sys.Sim(), sys.Pool()
	rng := rand.New(rand.NewSource(c.o.seed))
	// Burst lengths are a seeded shuffle of equal numbers of 1..32, so
	// a seed changes the order of the work and never the amount.
	lengths := make([]int, bursts)
	for i := range lengths {
		lengths[i] = 1 + i%32
	}
	rng.Shuffle(bursts, func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	payload := make([]byte, 64)
	pkts := make([]*dhl.Packet, 32)
	back := make([]*dhl.Packet, 32)
	rtUs := make([]float64, 0, bursts)
	var p phase
	var sendRecv, simRun time.Duration // time inside the two layers
	var calls int64
	traced := c.tel != nil // a traced rep: telemetry armed, time inside each layer kept

	startWall, c0 := time.Now(), cpuTime()
	ev0, t0 := sim.Processed(), sim.Now()
	for b := 0; b < bursts; b++ {
		n := lengths[b]
		rng.Read(payload)
		for i := 0; i < n; i++ {
			m, aerr := pool.Alloc()
			if aerr != nil {
				return p, errors.Join(aerr, pool.FreeBulk(pkts[:i]))
			}
			if aerr := m.AppendBytes(payload); aerr != nil {
				return p, errors.Join(aerr, pool.Free(m), pool.FreeBulk(pkts[:i]))
			}
			m.AccID = uint16(acc)
			pkts[i] = m
		}
		var w0 time.Time
		if traced {
			w0 = time.Now()
		}
		sent, serr := sys.SendPackets(nfID, pkts[:n])
		if traced {
			sendRecv += time.Since(w0)
		}
		if serr != nil || sent != n {
			return p, errors.Join(fmt.Errorf("SendPackets accepted %d of %d: %v", sent, n, serr), pool.FreeBulk(pkts[sent:n]))
		}
		p.attempted += uint64(n)
		sentAt := sim.Now()
		got := 0
		for got < n {
			if sim.Now()-sentAt > eventsim.Millisecond {
				p.failed += uint64(n - got)
				p.problems = append(p.problems, fmt.Sprintf("burst %d: %d of %d packets never came back", b, n-got, n))
				return p, pool.FreeBulk(back[:got])
			}
			if traced {
				w0 = time.Now()
			}
			sim.Run(sim.Now() + eventsim.Microsecond)
			if traced {
				w1 := time.Now()
				simRun += w1.Sub(w0)
				w0 = w1
			}
			g, rerr := sys.ReceivePackets(nfID, back[got:n])
			if traced {
				sendRecv += time.Since(w0)
				calls++
			}
			if rerr != nil {
				return p, errors.Join(rerr, pool.FreeBulk(back[:got]))
			}
			got += g
		}
		rtUs = append(rtUs, (sim.Now() - sentAt).Micros())
		for _, m := range back[:n] {
			if !bytes.Equal(m.Data(), payload) {
				p.failed++
			}
		}
		if ferr := pool.FreeBulk(back[:n]); ferr != nil {
			return p, ferr
		}
		p.pkts += uint64(n)
	}
	p.cpu = cpuTime() - c0
	events, virt := sim.Processed()-ev0, sim.Now()-t0

	if p.failed > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d payloads came back changed", p.failed))
	}
	if leaked := pool.InUse(); leaked != 0 {
		p.failed += uint64(leaked)
		p.problems = append(p.problems, fmt.Sprintf("%d mbufs leaked", leaked))
	}
	sort.Float64s(rtUs)
	p.latSamples = uint64(len(rtUs))
	p.virtual = map[string]float64{
		"goodput_gbps":   float64(p.pkts) * 64 * 8 / virt.Seconds() / 1e9,
		"lat_p50_us":     groupedQuantile(rtUs, 0.50),
		"lat_p99_us":     groupedQuantile(rtUs, 0.99),
		"events_per_pkt": float64(events) / float64(p.pkts),
	}
	ts, err := sys.Stats(0)
	if err != nil {
		return p, err
	}
	if ts.NFIDMismatches > 0 {
		p.failed += ts.NFIDMismatches
		p.problems = append(p.problems, fmt.Sprintf("%d NFID mismatches", ts.NFIDMismatches))
	}
	p.counts = transferCounts(ts)
	// What the self-time estimate multiplies the unit costs by.
	p.counts["probe.pkts"], p.counts["probe.events"] = float64(p.pkts), float64(events)
	p.counts["probe.batches"], p.counts["probe.bytes"] = float64(ts.BatchesSent), float64(ts.BytesSent)
	if traced {
		end := time.Now()
		root := c.tr.add(0, "core", "rt_ns_per_pkt", startWall, end, p.cpu, int64(p.pkts), 0)
		c.tr.add(root, "core", "send_recv_ns_per_pkt", startWall, end, sendRecv, int64(p.pkts), 0)
		c.tr.add(root, "eventsim", "run_1us_step", startWall, end, simRun, calls, 0)
	}
	if snap := sys.Snapshot(); snap != nil { // telemetry armed
		for s := dhl.StageIBQWait; s < dhl.NumStages; s++ {
			p.counts["core.stage."+s.String()+"_us"] = snap.Stages[s].MeanNs() / 1e3
		}
	}
	return p, nil
}

// groupedQuantile is the q-quantile of observations that fall on a few
// discrete values: round trips seen only at 1 us polls, or latencies of
// a CPU-only path that are sums of whole cycle counts. An order
// statistic of such a sample is a step function that flips between
// neighbouring values on the smallest change of input, so each value v
// is treated as the interval (previous distinct value, v] with its
// observations spread uniformly inside (the grouped-data quantile).
// sorted is ascending.
func groupedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := q * float64(len(sorted))
	v := sorted[min(int(rank), len(sorted)-1)]
	lo := sort.SearchFloat64s(sorted, v)
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	if lo == 0 {
		return v
	}
	prev := sorted[lo-1]
	return prev + (v-prev)*(rank-float64(lo))/float64(hi-lo)
}
