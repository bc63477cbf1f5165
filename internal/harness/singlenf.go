package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/ring"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// SingleNFConfig parameterizes the Figure 6 experiment: one NF instance on
// a 40G NIC with the Table IV core assignment.
type SingleNFConfig struct {
	Kind NFKind
	Mode Mode
	// FrameSize in bytes (64..1500).
	FrameSize int
	// OfferedWireBps defaults to the 40G line rate (Intel XL710-QDA2).
	OfferedWireBps float64
	// Warmup and Window bound the measurement (defaults 4 ms and 20 ms of
	// virtual time).
	Warmup eventsim.Time
	Window eventsim.Time
	// BatchBytes overrides the DHL runtime's batch size (ablation A1).
	BatchBytes int
	// Driver / RemoteNUMA select the DMA model variant (ablation A2).
	Driver     pcie.DriverMode
	RemoteNUMA bool
	// MatchFraction is the fraction of NIDS traffic carrying a
	// rule-matching payload. Default 1/256.
	MatchFraction float64
	// PoolCapacity overrides the testbed mbuf pool size (failure
	// injection runs use a starved pool).
	//
	//dhl:allow unreferenced TestPoolExhaustionDegradesGracefully starves the pool to reach the allocation-failure path
	PoolCapacity int
	// Telemetry, when set, arms the runtime's per-stage telemetry for DHL
	// runs (used by the overhead experiment and the per-stage latency
	// breakdown). Nil leaves the hot path untouched.
	Telemetry *telemetry.Registry
}

func (c SingleNFConfig) withDefaults() SingleNFConfig {
	if c.OfferedWireBps == 0 {
		c.OfferedWireBps = perf.NIC40GBps
	}
	if c.Warmup == 0 {
		c.Warmup = 4 * eventsim.Millisecond
	}
	if c.Window == 0 {
		c.Window = 20 * eventsim.Millisecond
	}
	if c.MatchFraction == 0 {
		c.MatchFraction = 1.0 / 256
	}
	return c
}

// SingleNFResult is one Figure 6 data point.
type SingleNFResult struct {
	Config     SingleNFConfig
	Throughput Throughput
	Latency    Latency

	RxDropped uint64
	TxDropped uint64
	// NFDropped counts packets the NF itself dropped (no SA / NIDS drop
	// rule / queue overflow at the NF boundary).
	NFDropped uint64
	// Transfer carries the DHL runtime's data-transfer-layer counters
	// (zero value in CPU-only and I/O modes).
	Transfer core.TransferStats
	// SimEvents and SimPollsSkipped are what the run cost the simulator:
	// events executed, and idle poll iterations accounted for without
	// running them (eventsim.Sim.Processed / PollsSkipped).
	SimEvents       uint64
	SimPollsSkipped uint64
}

// swProcessor is satisfied by the CPU-only NFs (and the Table I
// forwarders).
type swProcessor interface {
	Process(*mbuf.Mbuf) (nf.Verdict, float64)
}

// dhlNF is the pre/post shape the DHL-version NFs share.
type dhlNF interface {
	PreProcess(*mbuf.Mbuf) (nf.Verdict, float64)
	PostProcess(*mbuf.Mbuf) (nf.Verdict, float64)
	ID() core.NFID
}

// nidsPayload returns a PayloadFn embedding an alert-rule pattern in every
// 1/fraction-th packet.
func nidsPayload(fraction float64) netdev.PayloadFn {
	if fraction <= 0 {
		return nil
	}
	interval := uint64(1 / fraction)
	if interval == 0 {
		interval = 1
	}
	pattern := []byte("wget http") // sid 1008, alert action
	return func(i uint64, payload []byte) {
		if i%interval == 0 && len(payload) >= len(pattern) {
			copy(payload, pattern)
		}
	}
}

// RunSingleNF runs one Figure 6 data point and reports throughput and
// latency measured at the TX port (§V-C measurement protocol).
func RunSingleNF(cfg SingleNFConfig) (SingleNFResult, error) {
	cfg = cfg.withDefaults()
	res := SingleNFResult{Config: cfg}
	tb, err := newTestbed(cfg.PoolCapacity)
	if err != nil {
		return res, err
	}
	rxPort, txPort, err := tb.portPair(netdev.PortConfig{ID: 0, RateBps: perf.NIC40GBps, RxQueues: 2}, 1)
	if err != nil {
		return res, err
	}

	var payload netdev.PayloadFn
	if cfg.Kind == NIDS {
		payload = nidsPayload(cfg.MatchFraction)
	}

	var rt *core.Runtime
	switch cfg.Mode {
	case IOOnly:
		wireIOOnly(tb, rxPort, txPort, &res.NFDropped)
	case CPUOnly:
		proc, perr := buildSWNF(cfg.Kind)
		if perr != nil {
			return res, perr
		}
		if err := wireCPUOnly(tb, rxPort, txPort, proc, &res.NFDropped); err != nil {
			return res, err
		}
	case DHL:
		if rt, err = wireDHL(tb, rxPort, txPort, cfg, &res.NFDropped); err != nil {
			return res, err
		}
		// Let partial reconfiguration finish before traffic starts.
		tb.settle(60 * eventsim.Millisecond)
	default:
		return res, fmt.Errorf("harness: unknown mode %v", cfg.Mode)
	}

	gen, err := netdev.NewGenerator(tb.sim, netdev.GeneratorConfig{
		Port:           rxPort,
		Pool:           tb.pool,
		FrameSize:      cfg.FrameSize,
		OfferedWireBps: cfg.OfferedWireBps,
		Payload:        payload,
	})
	if err != nil {
		return res, err
	}
	gen.Start()
	thr, lat := tb.measure(txPort, cfg.Warmup, cfg.Window, cfg.FrameSize)
	gen.Stop()

	res.Throughput, res.Latency = thr, summarize(lat)
	res.RxDropped = rxPort.Stats().RxDropped
	res.TxDropped = txPort.Stats().TxDropped
	res.SimEvents, res.SimPollsSkipped = tb.sim.Processed(), tb.sim.PollsSkipped()
	if rt != nil {
		if ts, terr := rt.Stats(0); terr == nil {
			res.Transfer = ts
		}
	}
	return res, nil
}

// MeasureSingleNF runs the two-phase protocol used for the Figure 6 plots:
// throughput at offered line rate, then latency at 80% of the measured
// capacity so queueing reflects operating conditions rather than overload
// (see EXPERIMENTS.md, E3/E4 notes).
func MeasureSingleNF(cfg SingleNFConfig) (thr SingleNFResult, lat SingleNFResult, err error) {
	thr, err = RunSingleNF(cfg)
	if err != nil {
		return thr, lat, err
	}
	latCfg := cfg
	latCfg.OfferedWireBps = thr.Throughput.WireBps * 0.8
	if latCfg.OfferedWireBps <= 0 {
		return thr, thr, fmt.Errorf("harness: zero measured throughput for %v/%v", cfg.Kind, cfg.Mode)
	}
	lat, err = RunSingleNF(latCfg)
	return thr, lat, err
}

// defaultSADB is the evaluated gateway's SA database: one SA for all
// traffic.
func defaultSADB() (*nf.SADB, error) {
	sadb := nf.NewSADB()
	return sadb, sadb.AddDefaultSA()
}

func buildSWNF(kind NFKind) (swProcessor, error) {
	switch kind {
	case IPsecGateway:
		sadb, err := defaultSADB()
		if err != nil {
			return nil, err
		}
		return nf.NewIPsecGatewaySW(sadb)
	case NIDS:
		rules, err := nf.NewRuleSet(nf.DefaultSnortRules())
		if err != nil {
			return nil, err
		}
		return nf.NewNIDSSW(rules), nil
	default:
		return nil, fmt.Errorf("harness: unknown NF kind %v", kind)
	}
}

// wireIOOnly builds the Figure 6 "I/O" baseline: rx core -> ring -> tx
// core, no computation.
func wireIOOnly(tb *testbed, rxPort, txPort *netdev.Port, dropped *uint64) {
	hand := ring.MustNew[*mbuf.Mbuf]("io-hand", 512)
	tb.run(tb.core(), tb.nicToRing(rxPort, hand, dropped))
	tb.run(tb.core(), tb.ringToNIC(hand, txPort))
}

// wireCPUOnly builds the DPDK pipeline-mode CPU-only variant (§V-B):
// 2 I/O cores (one RX, one TX) and 2 worker cores around rte_rings.
func wireCPUOnly(tb *testbed, rxPort, txPort *netdev.Port, proc swProcessor, dropped *uint64) error {
	workerIn, err := ring.New[*mbuf.Mbuf]("worker-in", 128)
	if err != nil {
		return err
	}
	txRing, err := ring.New[*mbuf.Mbuf]("tx-ring", 512)
	if err != nil {
		return err
	}

	// Cores are numbered rx, tx, workers and started rx, workers, tx:
	// actors that act at the same instant run in start order.
	rxCore := tb.core()
	txCore := tb.core()
	tb.run(rxCore, tb.nicToRing(rxPort, workerIn, dropped))
	for w := 0; w < 2; w++ {
		tb.run(tb.core(), &stage{
			pull: fromRing(workerIn), proc: proc.Process, perPkt: 2 * perf.RingOpCycles,
			push: txRing.EnqueueBurst, dropped: dropped,
		})
	}
	tb.run(txCore, tb.ringToNIC(txRing, txPort))
	return nil
}

// wireDHL builds the DHL variant (Table IV single-NF row): one I/O core on
// the RX+shallow path, one on the OBQ+TX path, and the runtime's own
// TX/RX transfer cores.
func wireDHL(tb *testbed, rxPort, txPort *netdev.Port, cfg SingleNFConfig, dropped *uint64) (*core.Runtime, error) {
	rt, err := tb.newRuntime(core.Config{
		Driver: cfg.Driver, RemoteNUMA: cfg.RemoteNUMA,
		BatchBytes: cfg.BatchBytes, Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}

	app, aerr := buildDHLApp(rt, cfg.Kind, "nf", nil)
	if aerr != nil {
		return nil, aerr
	}

	tb.run(tb.core(), tb.dhlIngress(rt, app, rxPort, dropped))
	tb.run(tb.core(), tb.dhlEgress(rt, app, txPort, dropped))
	return rt, nil
}

// buildDHLApp constructs the DHL-version NF of the given kind against a
// runtime, registering it as name on node 0. It is the only place an NF
// kind becomes a dhlNF. A gateway is built on sadb when one is given
// (Figure 7(a)'s two instances share theirs) and on its own otherwise.
func buildDHLApp(rt *core.Runtime, kind NFKind, name string, sadb *nf.SADB) (dhlNF, error) {
	switch kind {
	case IPsecGateway:
		if sadb == nil {
			var err error
			if sadb, err = defaultSADB(); err != nil {
				return nil, err
			}
		}
		gw, err := nf.NewIPsecGatewayDHL(rt, sadb, name, 0)
		if err != nil {
			return nil, err
		}
		return gw, nil
	case NIDS:
		rules, err := nf.NewRuleSet(nf.DefaultSnortRules())
		if err != nil {
			return nil, err
		}
		ids, err := nf.NewNIDSDHL(rt, rules, name, 0)
		if err != nil {
			return nil, err
		}
		return ids, nil
	default:
		return nil, fmt.Errorf("harness: unknown NF kind %v", kind)
	}
}
