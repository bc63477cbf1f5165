package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// PRResult is one Table V row plus the §V-E no-interference check.
type PRResult struct {
	Module         string
	BitstreamBytes int
	PRTimeMs       float64
	// RunningNFBefore/During are the established NF's throughput in equal
	// windows before and while the new module is being reconfigured
	// ("There is no throughput degradation of the running NF when we load
	// the new accelerator module", §V-E).
	RunningNFBeforeBps float64
	RunningNFDuringBps float64
}

// RunTable5 reproduces Table V and the §V-E experiment in both launch
// orders: start one NF, let it run, then reconfigure a free part with the
// other NF's module while measuring the running NF's throughput.
func RunTable5() ([]PRResult, error) {
	first, err := runPRCase(hwfunc.IPsecCryptoName, hwfunc.PatternMatchingName)
	if err != nil {
		return nil, err
	}
	second, err := runPRCase(hwfunc.PatternMatchingName, hwfunc.IPsecCryptoName)
	if err != nil {
		return nil, err
	}
	// Row order matches Table V: ipsec-crypto then pattern-matching. The
	// PR time of module X comes from the case where X is the *newly
	// loaded* module.
	return []PRResult{second, first}, nil
}

// runPRCase starts an NF using runningModule, then loads newModule on the
// fly and reports the new module's PR time plus the running NF's
// throughput before/during the reconfiguration.
func runPRCase(runningModule, newModule string) (PRResult, error) {
	res := PRResult{Module: newModule}
	tb, err := newTestbed(0)
	if err != nil {
		return res, err
	}
	rt, dev, _, err := tb.newRuntime(pcie.Config{}, core.Config{})
	if err != nil {
		return res, err
	}
	if err := rt.AttachCores(0, tb.core(), tb.core(), tb.pool); err != nil {
		return res, err
	}
	rxPort, err := netdev.NewPort(tb.sim, netdev.PortConfig{ID: 0, RateBps: perf.NIC40GBps, RxQueues: 2})
	if err != nil {
		return res, err
	}
	txPort, err := netdev.NewPort(tb.sim, netdev.PortConfig{ID: 1, RateBps: perf.NIC40GBps})
	if err != nil {
		return res, err
	}

	var app dhlNF
	if runningModule == hwfunc.IPsecCryptoName {
		sadb := nf.NewSADB()
		if serr := sadb.AddDefaultSA(); serr != nil {
			return res, serr
		}
		gw, gerr := nf.NewIPsecGatewayDHL(rt, sadb, "running-nf", 0)
		if gerr != nil {
			return res, gerr
		}
		app = ipsecDHLAdapter{gw}
	} else {
		rules, rerr := nf.NewRuleSet(nf.DefaultSnortRules())
		if rerr != nil {
			return res, rerr
		}
		ids, ierr := nf.NewNIDSDHL(rt, rules, "running-nf", 0)
		if ierr != nil {
			return res, ierr
		}
		app = nidsDHLAdapter{ids}
	}
	tb.run(tb.core(), tb.dhlIngress(rt, app, rxPort, nil))
	tb.run(tb.core(), tb.dhlEgress(rt, app, txPort, nil))
	tb.settle(60 * eventsim.Millisecond)

	gen, err := netdev.NewGenerator(tb.sim, netdev.GeneratorConfig{
		Port: rxPort, Pool: tb.pool, FrameSize: 512, OfferedWireBps: perf.NIC40GBps,
	})
	if err != nil {
		return res, err
	}
	gen.Start()

	// Window 1: running NF alone.
	warm := 4 * eventsim.Millisecond
	win := 15 * eventsim.Millisecond
	start := tb.sim.Now()
	txPort.SetMeasureWindow(start+warm, start+warm+win)
	tb.sim.Run(start + warm + win)
	before, _, _, _ := txPort.Measured(start + warm + win)

	// Window 2: load the new module mid-traffic and measure concurrently.
	spec, ok := hwfunc.Specs()[newModule]
	if !ok {
		return res, fmt.Errorf("harness: unknown module %q", newModule)
	}
	res.BitstreamBytes = spec.BitstreamBytes
	prStart := tb.sim.Now()
	var prDone eventsim.Time
	if _, err := dev.LoadPR(spec, func(int) { prDone = tb.sim.Now() }); err != nil {
		return res, err
	}
	// Window 2 must cover the full reconfiguration (tens of ms).
	win2 := 40 * eventsim.Millisecond
	w2start := tb.sim.Now()
	txPort.SetMeasureWindow(w2start, w2start+win2)
	tb.sim.Run(w2start + win2)
	if prDone == 0 {
		return res, fmt.Errorf("harness: PR of %q did not complete within the window", newModule)
	}
	res.PRTimeMs = float64(prDone-prStart) / float64(eventsim.Millisecond)

	during, _, _, _ := txPort.Measured(w2start + win2)
	res.RunningNFBeforeBps = before
	res.RunningNFDuringBps = during
	return res, nil
}

// Table6Row is one Table VI row.
type Table6Row struct {
	Name        string
	LUTs        int
	LUTsPct     float64
	BRAM        int
	BRAMPct     float64
	Gbps        float64
	DelayCycles int
}

// Table6Result reproduces Table VI plus the §V-F packing bounds.
type Table6Result struct {
	Rows []Table6Row
	// MaxIPsecCrypto / MaxPatternMatching are how many instances of each
	// module fit alongside the static region ("there are enough resource
	// to place 5 ipsec-crypto or 2 pattern-matching in an FPGA", §V-F).
	MaxIPsecCrypto     int
	MaxPatternMatching int
}

// RunTable6 queries the resource model for Table VI and measures the
// packing bound by loading instances until the device rejects the next.
func RunTable6() (Table6Result, error) {
	var res Table6Result
	specs := hwfunc.Specs()
	for _, name := range []string{hwfunc.IPsecCryptoName, hwfunc.PatternMatchingName} {
		s := specs[name]
		res.Rows = append(res.Rows, Table6Row{
			Name:        s.Name,
			LUTs:        s.LUTs,
			LUTsPct:     100 * float64(s.LUTs) / float64(perf.FPGATotalLUTs),
			BRAM:        s.BRAM,
			BRAMPct:     100 * float64(s.BRAM) / float64(perf.FPGATotalBRAM),
			Gbps:        s.ThroughputBps / 1e9,
			DelayCycles: s.DelayCycles,
		})
	}
	res.Rows = append(res.Rows, Table6Row{
		Name:    "static-region",
		LUTs:    perf.StaticRegionLUTs,
		LUTsPct: 100 * float64(perf.StaticRegionLUTs) / float64(perf.FPGATotalLUTs),
		BRAM:    perf.StaticRegionBRAM,
		BRAMPct: 100 * float64(perf.StaticRegionBRAM) / float64(perf.FPGATotalBRAM),
	})

	count := func(name string) (int, error) {
		sim := eventsim.New()
		dev, err := fpga.NewDevice(sim, fpga.Config{Regions: 16})
		if err != nil {
			return 0, err
		}
		n := 0
		for {
			if _, err := dev.LoadPR(specs[name], nil); err != nil {
				return n, nil
			}
			n++
			if n > 16 {
				return 0, fmt.Errorf("harness: packing bound for %q did not converge", name)
			}
		}
	}
	var err error
	if res.MaxIPsecCrypto, err = count(hwfunc.IPsecCryptoName); err != nil {
		return res, err
	}
	if res.MaxPatternMatching, err = count(hwfunc.PatternMatchingName); err != nil {
		return res, err
	}
	return res, nil
}
