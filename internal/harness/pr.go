package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// prResult is one Table V row plus the §V-E no-interference check.
type prResult struct {
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

// runTable5 reproduces Table V and the §V-E experiment in both launch
// orders: start one NF, let it run, then reconfigure a free part with the
// other NF's module while measuring the running NF's throughput.
func runTable5() ([]prResult, error) {
	first, err := runPRCase(IPsecGateway, hwfunc.PatternMatchingName)
	if err != nil {
		return nil, err
	}
	second, err := runPRCase(NIDS, hwfunc.IPsecCryptoName)
	if err != nil {
		return nil, err
	}
	// Row order matches Table V: ipsec-crypto then pattern-matching. The
	// PR time of module X comes from the case where X is the *newly
	// loaded* module.
	return []prResult{second, first}, nil
}

// runPRCase starts the NF of kind running, then loads newModule on the fly
// and reports the new module's PR time plus the running NF's throughput
// before/during the reconfiguration.
func runPRCase(running NFKind, newModule string) (prResult, error) {
	res := prResult{Module: newModule}
	tb, err := newTestbed(0)
	if err != nil {
		return res, err
	}
	rt, err := tb.newRuntime(core.Config{})
	if err != nil {
		return res, err
	}
	dev, err := rt.Device(0)
	if err != nil {
		return res, err
	}
	rxPort, txPort, err := tb.portPair(netdev.PortConfig{ID: 0, RateBps: perf.NIC40GBps, RxQueues: 2}, 1)
	if err != nil {
		return res, err
	}
	app, err := buildDHLApp(rt, running, "running-nf", nil)
	if err != nil {
		return res, err
	}
	egress, err := tb.dhlEgress(rt, app, txPort, nil)
	if err != nil {
		return res, err
	}
	tb.run(tb.core(), tb.dhlIngress(rt, app, rxPort, nil))
	tb.run(tb.core(), egress)
	tb.settle(60 * eventsim.Millisecond)

	const frame = 512
	gen, err := netdev.NewGenerator(tb.sim, netdev.GeneratorConfig{
		Port: rxPort, Pool: tb.pool, FrameSize: frame, OfferedWireBps: perf.NIC40GBps,
	})
	if err != nil {
		return res, err
	}
	gen.Start()

	// Window 1: running NF alone.
	before, _ := tb.measure(txPort, 4*eventsim.Millisecond, 15*eventsim.Millisecond, frame)

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
	during, _ := tb.measure(txPort, 0, 40*eventsim.Millisecond, frame)
	if prDone == 0 {
		return res, fmt.Errorf("harness: PR of %q did not complete within the window", newModule)
	}
	res.PRTimeMs = float64(prDone-prStart) / float64(eventsim.Millisecond)
	res.RunningNFBeforeBps = before.GoodBps
	res.RunningNFDuringBps = during.GoodBps
	return res, nil
}

// table6Row is one Table VI row.
type table6Row struct {
	Name        string
	LUTs        int
	LUTsPct     float64
	BRAM        int
	BRAMPct     float64
	Gbps        float64
	DelayCycles int
}

// table6Result reproduces Table VI plus the §V-F packing bounds.
type table6Result struct {
	Rows []table6Row
	// MaxIPsecCrypto / MaxPatternMatching are how many instances of each
	// module fit alongside the static region ("there are enough resource
	// to place 5 ipsec-crypto or 2 pattern-matching in an FPGA", §V-F).
	MaxIPsecCrypto     int
	MaxPatternMatching int
}

// runTable6 queries the resource model for Table VI and measures the
// packing bound by loading instances until the device rejects the next.
func runTable6() (table6Result, error) {
	var res table6Result
	specs := hwfunc.Specs()
	for _, name := range []string{hwfunc.IPsecCryptoName, hwfunc.PatternMatchingName} {
		s := specs[name]
		res.Rows = append(res.Rows, table6Row{
			Name:        s.Name,
			LUTs:        s.LUTs,
			LUTsPct:     100 * float64(s.LUTs) / float64(perf.FPGATotalLUTs),
			BRAM:        s.BRAM,
			BRAMPct:     100 * float64(s.BRAM) / float64(perf.FPGATotalBRAM),
			Gbps:        s.ThroughputBps / 1e9,
			DelayCycles: s.DelayCycles,
		})
	}
	res.Rows = append(res.Rows, table6Row{
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
