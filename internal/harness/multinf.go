package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
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
}

// RunMultiNF reproduces one Figure 7 data point.
func RunMultiNF(cfg MultiNFConfig) (MultiNFResult, error) {
	cfg = cfg.withDefaults()
	res := MultiNFResult{Config: cfg}
	tb, err := newTestbed(32768)
	if err != nil {
		return res, err
	}
	rt, _, _, err := tb.newRuntime(pcie.Config{}, core.Config{})
	if err != nil {
		return res, err
	}
	if err := rt.AttachCores(0, tb.core(), tb.core(), tb.pool); err != nil {
		return res, err
	}

	// Two NF instances.
	var apps [2]dhlNF
	sadb := nf.NewSADB()
	if err := sadb.AddDefaultSA(); err != nil {
		return res, err
	}
	gw1, err := nf.NewIPsecGatewayDHL(rt, sadb, "ipsec-1", 0)
	if err != nil {
		return res, err
	}
	apps[0] = ipsecDHLAdapter{gw1}
	if cfg.SharedAccelerator {
		gw2, gerr := nf.NewIPsecGatewayDHL(rt, sadb, "ipsec-2", 0)
		if gerr != nil {
			return res, gerr
		}
		apps[1] = ipsecDHLAdapter{gw2}
	} else {
		rules, rerr := nf.NewRuleSet(nf.DefaultSnortRules())
		if rerr != nil {
			return res, rerr
		}
		ids, ierr := nf.NewNIDSDHL(rt, rules, "nids-1", 0)
		if ierr != nil {
			return res, ierr
		}
		apps[1] = nidsDHLAdapter{ids}
	}
	tb.settle(80 * eventsim.Millisecond) // both PR loads complete

	// Four 10G ports: ports 0,1 feed NF1; ports 2,3 feed NF2. Each port
	// has a dedicated I/O core doing the full RX -> shallow -> IBQ and
	// OBQ -> post -> TX duty ("each port assigned with one CPU core for
	// I/O", §V-D).
	type portRig struct {
		rx  *netdev.Port
		tx  *netdev.Port
		gen *netdev.Generator
	}
	var rigs [4]portRig
	var payload netdev.PayloadFn
	for p := 0; p < 4; p++ {
		nfIdx := p / 2
		rxPort, perr := netdev.NewPort(tb.sim, netdev.PortConfig{ID: p, RateBps: perf.NIC10GBps, RxQueues: 1})
		if perr != nil {
			return res, perr
		}
		txPort, perr := netdev.NewPort(tb.sim, netdev.PortConfig{ID: 10 + p, RateBps: perf.NIC10GBps})
		if perr != nil {
			return res, perr
		}
		pl := payload
		if !cfg.SharedAccelerator && nfIdx == 1 {
			pl = nidsPayload(1.0 / 256)
		}
		gen, gerr := netdev.NewGenerator(tb.sim, netdev.GeneratorConfig{
			Port: rxPort, Pool: tb.pool, FrameSize: cfg.FrameSize,
			OfferedWireBps: perf.NIC10GBps, Payload: pl,
		})
		if gerr != nil {
			return res, gerr
		}
		rigs[p] = portRig{rx: rxPort, tx: txPort, gen: gen}
		tb.run(tb.core(), tb.dhlIngress(rt, apps[nfIdx], rxPort, nil), tb.dhlEgress(rt, apps[nfIdx], txPort, nil))
	}

	start := tb.sim.Now()
	measStart := start + cfg.Warmup
	measEnd := measStart + cfg.Window
	for p := 0; p < 4; p++ {
		rigs[p].tx.SetMeasureWindow(measStart, measEnd)
		rigs[p].gen.Start()
	}
	tb.sim.Run(measEnd)

	sum := func(a, b int) Throughput {
		ga, wa, pa, _ := rigs[a].tx.Measured(measEnd)
		gb, wb, pb, _ := rigs[b].tx.Measured(measEnd)
		return Throughput{
			GoodBps:  ga + gb,
			WireBps:  wa + wb,
			InputBps: float64(pa+pb) * float64(cfg.FrameSize) * 8 / cfg.Window.Seconds(),
			Pkts:     pa + pb,
		}
	}
	res.NF1 = sum(0, 1)
	res.NF2 = sum(2, 3)
	if ts, terr := rt.Stats(0); terr == nil {
		res.NFIDMismatches = ts.NFIDMismatches
	}
	return res, nil
}

// RunFigure7 produces both Figure 7 sub-figures over the frame-size sweep.
func RunFigure7(sizes []int) (shared, different []MultiNFResult, err error) {
	if len(sizes) == 0 {
		sizes = FrameSizes
	}
	for _, s := range sizes {
		r, rerr := RunMultiNF(MultiNFConfig{SharedAccelerator: true, FrameSize: s})
		if rerr != nil {
			return nil, nil, fmt.Errorf("harness: figure 7(a) %dB: %w", s, rerr)
		}
		shared = append(shared, r)
		r, rerr = RunMultiNF(MultiNFConfig{SharedAccelerator: false, FrameSize: s})
		if rerr != nil {
			return nil, nil, fmt.Errorf("harness: figure 7(b) %dB: %w", s, rerr)
		}
		different = append(different, r)
	}
	return shared, different, nil
}
