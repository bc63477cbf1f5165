package harness

import (
	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// MultiNFConfig parameterizes the Figure 7 experiment: two NF instances,
// each fed by two 10G ports (Intel X520-DA2), sharing one FPGA.
type MultiNFConfig struct {
	// SharedAccelerator selects Figure 7(a) (two IPsec gateways calling
	// the same ipsec-crypto module); false selects Figure 7(b) (IPsec +
	// NIDS with different accelerator modules).
	SharedAccelerator bool
	FrameSize         int
	Warmup            eventsim.Time
	Window            eventsim.Time
}

func (c MultiNFConfig) withDefaults() MultiNFConfig {
	if c.Warmup == 0 {
		c.Warmup = 4 * eventsim.Millisecond
	}
	if c.Window == 0 {
		c.Window = 20 * eventsim.Millisecond
	}
	return c
}

// MultiNFResult reports one Figure 7 data point: per-instance throughput.
type MultiNFResult struct {
	Config MultiNFConfig
	// NF1 and NF2 are the per-instance throughputs (NF1 = IPsec1, NF2 =
	// IPsec2 in 7(a); NF1 = IPsec, NF2 = NIDS in 7(b)).
	NF1 Throughput
	NF2 Throughput
	// Isolation cross-checks: zero means no NF ever received another NF's
	// packets.
	NFIDMismatches uint64
	// Sim is what the run cost the simulator, by kind of step
	// (eventsim.Sim.Stats), read at the end of the run.
	Sim eventsim.Stats
}

// RunMultiNF reproduces one Figure 7 data point.
func RunMultiNF(cfg MultiNFConfig) (MultiNFResult, error) {
	cfg = cfg.withDefaults()
	res := MultiNFResult{Config: cfg}
	tb, err := newTestbed(32768)
	if err != nil {
		return res, err
	}
	rt, err := tb.newRuntime(core.Config{})
	if err != nil {
		return res, err
	}
	apps, err := multiNFApps(rt, cfg.SharedAccelerator)
	if err != nil {
		return res, err
	}
	tb.settle(80 * eventsim.Millisecond) // both PR loads complete

	// Four 10G ports: ports 0,1 feed NF1; ports 2,3 feed NF2. Each port
	// has a dedicated I/O core doing the full RX -> shallow -> IBQ and
	// OBQ -> post -> TX duty ("each port assigned with one CPU core for
	// I/O", §V-D).
	var txs [4]*netdev.Port
	var gens [4]*netdev.Generator
	for p := range txs {
		nfIdx := p / 2
		rxPort, txPort, perr := tb.portPair(netdev.PortConfig{ID: p, RateBps: perf.NIC10GBps, RxQueues: 1}, 10+p)
		if perr != nil {
			return res, perr
		}
		var payload netdev.PayloadFn
		if !cfg.SharedAccelerator && nfIdx == 1 {
			payload = nidsPayload(1.0 / 256)
		}
		gen, gerr := netdev.NewGenerator(tb.sim, netdev.GeneratorConfig{
			Port: rxPort, Pool: tb.pool, FrameSize: cfg.FrameSize,
			OfferedWireBps: perf.NIC10GBps, Payload: payload,
		})
		if gerr != nil {
			return res, gerr
		}
		txs[p], gens[p] = txPort, gen
		egress, eerr := tb.dhlEgress(rt, apps[nfIdx], txPort, nil)
		if eerr != nil {
			return res, eerr
		}
		tb.run(tb.core(), tb.dhlIngress(rt, apps[nfIdx], rxPort, nil), egress)
	}

	for _, gen := range gens {
		gen.Start()
	}
	end := tb.runWindow(cfg.Warmup, cfg.Window, txs[:]...)
	res.NF1 = carried(end, cfg.Window, cfg.FrameSize, txs[0], txs[1])
	res.NF2 = carried(end, cfg.Window, cfg.FrameSize, txs[2], txs[3])
	if ts, terr := rt.Stats(0); terr == nil {
		res.NFIDMismatches = ts.NFIDMismatches
	}
	res.Sim = tb.sim.Stats()
	return res, nil
}

// multiNFApps registers Figure 7's two NF instances: two IPsec gateways on
// the same ipsec-crypto module for 7(a), a gateway and a NIDS for 7(b).
// 7(a)'s gateways are two instances of one deployment, so they are built
// on one SADB.
func multiNFApps(rt *core.Runtime, shared bool) (apps [2]dhlNF, err error) {
	sadb, err := defaultSADB()
	if err != nil {
		return apps, err
	}
	if apps[0], err = buildDHLApp(rt, IPsecGateway, "ipsec-1", sadb); err != nil {
		return apps, err
	}
	if shared {
		apps[1], err = buildDHLApp(rt, IPsecGateway, "ipsec-2", sadb)
	} else {
		apps[1], err = buildDHLApp(rt, NIDS, "nids-1", nil)
	}
	return apps, err
}
