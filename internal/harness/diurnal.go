package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
	"github.com/opencloudnext/dhl-go/internal/tuner"
)

// This file is the T5 experiment: a diurnal load sweep that swings one
// DHL NF between a peak and a trough offered load in a single run and
// measures what the adaptive batching autotuner buys. The paper fixes
// the transfer batch at 6 KB — ideal at line rate, but at a diurnal
// trough a 6 KB batch never fills and every packet eats the full
// partial-batch flush deadline. The autotuner shrinks the batch target
// and flush deadline when fill collapses, cutting trough p99 without
// giving up peak goodput; this harness measures both phases against the
// fixed-6KB baseline under identical traffic.
//
// The ingress is pressure-aware: IBQ packets SendPackets did not accept
// are held and re-offered, never silently freed, so the IBQ conservation
// gate (zero silent drops) holds by measurement, not by assumption.

// DiurnalConfig parameterizes one diurnal sweep run.
type DiurnalConfig struct {
	// FrameSize in bytes (64..1500). Default 1024.
	FrameSize int
	// PeakWireBps is the peak-phase offered load. Default 20 Gbps.
	PeakWireBps float64
	// TroughWireBps is the trough-phase offered load. Default 400 Mbps —
	// one 1024 B frame every ~21 us, so a 6 KB batch never fills.
	TroughWireBps float64
	// Warmup guards each phase before its measurement window (the
	// autotuner's reaction time rides inside it). Default 3 ms.
	Warmup eventsim.Time
	// Window is each phase's measurement window. Default 10 ms.
	Window eventsim.Time
	// AutoTune arms the adaptive batching controller; false runs the
	// fixed-6KB baseline.
	AutoTune bool
}

func (c DiurnalConfig) withDefaults() DiurnalConfig {
	if c.FrameSize == 0 {
		c.FrameSize = 1024
	}
	if c.PeakWireBps == 0 {
		c.PeakWireBps = 20e9
	}
	if c.TroughWireBps == 0 {
		c.TroughWireBps = 0.4e9
	}
	if c.Warmup == 0 {
		c.Warmup = 3 * eventsim.Millisecond
	}
	if c.Window == 0 {
		c.Window = 10 * eventsim.Millisecond
	}
	return c
}

// DiurnalPhase is one phase's measurement.
type DiurnalPhase struct {
	Name           string
	OfferedWireBps float64
	Throughput     Throughput
	Latency        Latency
}

// DiurnalResult is one run's outcome: both phase measurements plus the
// back-pressure and controller ledgers.
type DiurnalResult struct {
	Config DiurnalConfig
	Peak   DiurnalPhase
	Trough DiurnalPhase

	// SilentDrops counts IBQ-refused packets the ingress freed without
	// attribution. The pressure-aware ingress holds and retries instead,
	// so the T5 gate requires this to be zero.
	SilentDrops uint64
	// NFDropped counts packets the NF's own verdict dropped.
	NFDropped uint64
	// Tuner is the controller's final status (zero when AutoTune is off).
	Tuner tuner.Status
	// Transfer carries the runtime's conservation ledger; its IBQRejected
	// counts the refusals, each re-offered by the ingress, not lost.
	Transfer core.TransferStats
	// Sim is what the run cost the simulator, by kind of step
	// (eventsim.Sim.Stats), read at the end of the run.
	Sim eventsim.Stats
}

// ingressState is the pressure-aware ingress loop's shared state.
type ingressState struct {
	held        []*mbuf.Mbuf
	silentDrops uint64
	nfDropped   uint64
}

// wireDHLIngressPressured starts the pressure-aware variant of the DHL
// ingress core: IBQ-refused packets are held and re-offered on later
// polls (zero silent drops), and while the hold-over buffer is deep the
// loop stops pulling from the NIC so the backlog lands in the port's RX
// rings as visible imissed counts instead of anonymous frees. The loop
// watches the port: with nothing held it is idle only on an empty NIC.
func wireDHLIngressPressured(tb *testbed, rt *core.Runtime, app dhlNF, rxPort *netdev.Port, st *ingressState) {
	ingressCore := tb.core()
	src := tb.fromNIC(rxPort)
	rxBuf := make([]*mbuf.Mbuf, 2*burstSize)
	// Bound once: the loop commits on every busy iteration.
	commit := func() {
		acc, serr := rt.SendPackets(app.ID(), st.held)
		if serr != nil {
			// Hard send error (not back-pressure): the packets cannot be
			// retried; free them and account the loss.
			for _, m := range st.held {
				st.silentDrops++
				_ = tb.pool.Free(m)
			}
			st.held = st.held[:0]
			return
		}
		if acc > 0 {
			n := copy(st.held, st.held[acc:])
			st.held = st.held[:n]
		}
	}
	loop := eventsim.NewPollLoop(tb.sim, ingressCore, perf.PollIdleCycles, func() (float64, func()) {
		got := 0
		if len(st.held) < burstSize { // back-pressured: let the NIC rings absorb
			got = src.pull(rxBuf)
		}
		if got == 0 && len(st.held) == 0 {
			return 0, nil
		}
		cycles := 0.0
		for _, m := range rxBuf[:got] {
			verdict, c := app.PreProcess(m)
			cycles += perf.IORxCycles + c
			if verdict != nf.VerdictForward {
				st.nfDropped++
				_ = tb.pool.Free(m)
				continue
			}
			st.held = append(st.held, m)
		}
		if len(st.held) == 0 {
			return cycles, nil
		}
		return cycles, commit
	})
	loop.Watch(src.in)
	loop.Start()
}

// RunDiurnal runs one diurnal sweep: settle, peak phase (warmup then
// measured window), retarget to the trough rate on the same live
// system, guard, then the trough window. With AutoTune set the
// controller is enabled before traffic starts and its decisions ride
// the same event loop as the data path.
func RunDiurnal(cfg DiurnalConfig) (DiurnalResult, error) {
	cfg = cfg.withDefaults()
	res := DiurnalResult{Config: cfg}
	tb, err := newTestbed(0)
	if err != nil {
		return res, err
	}
	rxPort, txPort, err := tb.portPair(netdev.PortConfig{ID: 0, RateBps: perf.NIC40GBps, RxQueues: 2}, 1)
	if err != nil {
		return res, err
	}
	// Telemetry is always armed: the controller samples the span ring, and
	// the fixed baseline must pay the same (zero-alloc) observation cost
	// for the comparison to be fair.
	tel := telemetry.New(1024)
	rt, err := tb.newRuntime(core.Config{Telemetry: tel})
	if err != nil {
		return res, err
	}
	app, err := buildDHLApp(rt, IPsecGateway, "nf", nil)
	if err != nil {
		return res, err
	}
	st := &ingressState{}
	egress, err := tb.dhlEgress(rt, app, txPort, &st.nfDropped)
	if err != nil {
		return res, err
	}
	wireDHLIngressPressured(tb, rt, app, rxPort, st)
	tb.run(tb.core(), egress)
	tb.settle(60 * eventsim.Millisecond) // partial reconfiguration

	var tun *tuner.Tuner
	if cfg.AutoTune {
		tun, err = tuner.New(tb.sim, rt, tel)
		if err != nil {
			return res, err
		}
		if err := tun.Enable(); err != nil {
			return res, err
		}
	}

	// Burst 1: frames arrive individually at the offered pace, so the
	// trough actually starves the batch stager instead of delivering
	// line-rate micro-bursts.
	gen, err := netdev.NewGenerator(tb.sim, netdev.GeneratorConfig{
		Port: rxPort, Pool: tb.pool, FrameSize: cfg.FrameSize,
		OfferedWireBps: cfg.PeakWireBps, Burst: 1,
	})
	if err != nil {
		return res, err
	}
	gen.Start()

	phase := func(name string, offered float64) DiurnalPhase {
		thr, lat := tb.measure(txPort, cfg.Warmup, cfg.Window, cfg.FrameSize)
		return DiurnalPhase{Name: name, OfferedWireBps: offered, Throughput: thr, Latency: summarize(lat)}
	}

	res.Peak = phase("peak", cfg.PeakWireBps)
	if err := gen.SetOfferedWireBps(cfg.TroughWireBps); err != nil {
		return res, err
	}
	res.Trough = phase("trough", cfg.TroughWireBps)
	gen.Stop()
	tb.sim.Run(tb.sim.Now() + eventsim.Millisecond) // drain in-flight batches

	res.SilentDrops = st.silentDrops
	res.NFDropped = st.nfDropped
	res.Sim = tb.sim.Stats()
	if ts, terr := rt.Stats(0); terr == nil {
		res.Transfer = ts
	}
	if tun != nil {
		res.Tuner = tun.Status()
	}
	return res, nil
}

// diurnalComparison pairs the fixed-6KB baseline with the autotuned run
// under identical traffic and carries the T5 gate inputs.
type diurnalComparison struct {
	Fixed DiurnalResult
	Tuned DiurnalResult
	// PeakGoodputRatio is tuned/fixed peak goodput; the gate requires
	// >= 0.98 (adaptivity must not cost peak throughput).
	PeakGoodputRatio float64
	// TroughP99Cut is 1 - tuned/fixed trough p99; the gate requires
	// >= 0.30 (the tuner must actually shorten the idle-tail latency).
	TroughP99Cut float64
}

// runDiurnalComparison runs the sweep twice — fixed 6 KB, then
// autotuned — and computes the gate ratios.
func runDiurnalComparison(cfg DiurnalConfig) (diurnalComparison, error) {
	fixedCfg := cfg
	fixedCfg.AutoTune = false
	fixed, err := RunDiurnal(fixedCfg)
	if err != nil {
		return diurnalComparison{}, fmt.Errorf("harness: fixed run: %w", err)
	}
	tunedCfg := cfg
	tunedCfg.AutoTune = true
	tuned, err := RunDiurnal(tunedCfg)
	if err != nil {
		return diurnalComparison{}, fmt.Errorf("harness: autotuned run: %w", err)
	}
	cmp := diurnalComparison{Fixed: fixed, Tuned: tuned}
	if fixed.Peak.Throughput.GoodBps > 0 {
		cmp.PeakGoodputRatio = tuned.Peak.Throughput.GoodBps / fixed.Peak.Throughput.GoodBps
	}
	if fixed.Trough.Latency.P99Us > 0 {
		cmp.TroughP99Cut = 1 - tuned.Trough.Latency.P99Us/fixed.Trough.Latency.P99Us
	}
	return cmp, nil
}
