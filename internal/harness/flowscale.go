package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// The flow-scale experiment measures how a stateful NF's goodput and
// memory behave as the live 5-tuple population grows from thousands to
// millions — the regime the flowtab rebase targets. The NF under test
// is the flow-aware firewall (per-flow verdict cache in front of the
// ACL walk): unlike the NAT its state is not bounded by a 16-bit port
// pool, so the table genuinely reaches millions of entries. Traffic is
// Zipf-skewed with optional flow churn, the worst case for a S2 cache:
// the heavy head keeps hitting while the churning tail keeps
// inserting/expiring.

// FlowScaleConfig parameterizes one flows-vs-goodput data point.
type FlowScaleConfig struct {
	// Flows is the live 5-tuple population (defaults to 10k).
	Flows int
	// ZipfSkew > 1 selects the heavy-tail flow-size distribution
	// (default 1.2); 0 keeps uniform traffic.
	ZipfSkew float64
	// ChurnPerSec retires+rebirths flows at this rate (virtual time).
	ChurnPerSec float64
	// FrameSize defaults to 128 B (small enough to stress per-packet
	// state costs, large enough to carry the 5-tuple diversity).
	FrameSize int
	// OfferedWireBps defaults to the 40G line rate.
	OfferedWireBps float64
	// Warmup and Window bound the measurement (defaults 2 ms and 10 ms).
	Warmup eventsim.Time
	Window eventsim.Time
	// MemBudgetBytes is the verdict cache's hard memory budget (0:
	// unbudgeted; no entry cap either way). FlowTTL expires idle
	// verdicts (default 50 ms so churned-out flows age away).
	MemBudgetBytes int
	FlowTTL        eventsim.Time
	// PoolCapacity overrides the testbed mbuf pool size.
	//
	//dhl:allow unreferenced TestFlowScaleConservationSeesDryPool starves the pool to reach the AllocFailures ledger
	PoolCapacity int
}

func (c FlowScaleConfig) withDefaults() FlowScaleConfig {
	if c.Flows == 0 {
		c.Flows = 10_000
	}
	if c.ZipfSkew == 0 {
		c.ZipfSkew = 1.2
	}
	if c.FrameSize == 0 {
		c.FrameSize = 128
	}
	if c.OfferedWireBps == 0 {
		c.OfferedWireBps = perf.NIC40GBps
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * eventsim.Millisecond
	}
	if c.Window == 0 {
		c.Window = 10 * eventsim.Millisecond
	}
	if c.FlowTTL == 0 {
		c.FlowTTL = 50 * eventsim.Millisecond
	}
	return c
}

// FlowScaleResult is one flows-vs-goodput data point plus the flow
// table's accounting, enough to audit both the performance and the
// memory story.
type FlowScaleResult struct {
	Config     FlowScaleConfig
	Throughput Throughput

	// Tables snapshots the NF's flow tables at the end of the run.
	Tables []flowtab.Info
	// BytesPerFlow is table memory divided by live entries.
	BytesPerFlow float64
	// CacheHits/CacheMisses are the verdict-cache counters; HitRate is
	// hits over lookups.
	CacheHits   uint64
	CacheMisses uint64
	HitRate     float64

	// Churned counts the generator's flow churn steps, each one death
	// and one birth.
	Churned uint64

	// Drop attribution: every generated frame lands in exactly one of
	// TxFrames (delivered), RxDropped (NIC queue overflow), NFDropped
	// (firewall deny + ring overflow), or TxDropped.
	GenSent   uint64
	TxFrames  uint64
	RxDropped uint64
	NFDropped uint64
	TxDropped uint64
	// AllocFailures counts frames the generator could not back with an
	// mbuf. They never enter GenSent, so the ledger above cannot see
	// them: must be 0.
	AllocFailures uint64
	// Leaked is pool.InUse after the drain: must be 0.
	Leaked int
	// Sim is what the run cost the simulator, by kind of step
	// (eventsim.Sim.Stats), read at the end of the run.
	Sim eventsim.Stats
}

// CheckConservation verifies the drop-attribution ledger balances
// exactly, the pool never ran dry and nothing leaked: generated =
// delivered + attributed drops.
func (r FlowScaleResult) CheckConservation() error {
	if r.Leaked != 0 {
		return fmt.Errorf("harness: flowscale leaked %d mbufs", r.Leaked)
	}
	if r.AllocFailures != 0 {
		return fmt.Errorf("harness: flowscale pool ran dry: %d frames were never generated", r.AllocFailures)
	}
	accounted := r.TxFrames + r.RxDropped + r.NFDropped + r.TxDropped
	if r.GenSent != accounted {
		return fmt.Errorf("harness: flowscale ledger off by %d: sent %d != tx %d + rxdrop %d + nfdrop %d + txdrop %d",
			int64(r.GenSent)-int64(accounted), r.GenSent, r.TxFrames, r.RxDropped, r.NFDropped, r.TxDropped)
	}
	return nil
}

// flowScaleRules is the ACL behind the verdict cache: deny rules that
// hit a thin slice of the generator's flow space at every population
// size (FlowSrc packs low flow ids densely under 10.0.0/24, so the /32s
// fire even for tiny sets, while the /13 only matters past ~0.5M
// flows), plus the default allow.
func flowScaleRules(fw *nf.Firewall) error {
	for _, rule := range []nf.FirewallRule{
		{SrcPrefix: 0x0A000005, SrcDepth: 32, Action: nf.FirewallDeny, Description: "blocklisted host"},
		{SrcPrefix: 0x0A000032, SrcDepth: 32, Action: nf.FirewallDeny, Description: "blocklisted host"},
		{SrcPrefix: 0x0A080000, SrcDepth: 13, Action: nf.FirewallDeny, Description: "blocklisted /13"},
	} {
		if err := fw.AddRule(rule); err != nil {
			return err
		}
	}
	return nil
}

// RunFlowScale runs one data point: the flow-aware firewall on the
// CPU-only pipeline (2 I/O + 2 worker cores), fed Zipf traffic over
// cfg.Flows 5-tuples, with the verdict-cache TTL wheel ticking off
// virtual time.
func RunFlowScale(cfg FlowScaleConfig) (FlowScaleResult, error) {
	cfg = cfg.withDefaults()
	res := FlowScaleResult{Config: cfg}
	tb, err := newTestbed(cfg.PoolCapacity)
	if err != nil {
		return res, err
	}
	rxPort, txPort, err := tb.portPair(netdev.PortConfig{ID: 0, RateBps: perf.NIC40GBps, RxQueues: 2}, 1)
	if err != nil {
		return res, err
	}

	fw := nf.NewFirewall(nf.FirewallAllow)
	if err := flowScaleRules(fw); err != nil {
		return res, err
	}
	ffw, err := nf.NewFlowFirewall(fw, nf.FlowFirewallConfig{
		MemBudgetBytes: cfg.MemBudgetBytes,
		FlowTTL:        cfg.FlowTTL,
		Clock:          tb.sim.Now,
	})
	if err != nil {
		return res, err
	}
	if err := wireCPUOnly(tb, rxPort, txPort, ffw, &res.NFDropped); err != nil {
		return res, err
	}

	gen, err := netdev.NewGenerator(tb.sim, netdev.GeneratorConfig{
		Port:           rxPort,
		Pool:           tb.pool,
		FrameSize:      cfg.FrameSize,
		OfferedWireBps: cfg.OfferedWireBps,
		Flows:          cfg.Flows,
		ZipfSkew:       cfg.ZipfSkew,
		ChurnPerSec:    cfg.ChurnPerSec,
	})
	if err != nil {
		return res, err
	}

	// The expiry wheel ticks at a quarter TTL, the cadence an NF's
	// housekeeping timer would use.
	tickEvery := cfg.FlowTTL / 4
	if tickEvery <= 0 {
		tickEvery = eventsim.Millisecond
	}
	stopTicks := false
	var tickLoop func()
	tickLoop = func() {
		if stopTicks {
			return
		}
		ffw.Tick()
		tb.sim.After(tickEvery, tickLoop)
	}
	tb.sim.After(tickEvery, tickLoop)

	gen.Start()
	res.Throughput, _ = tb.measure(txPort, cfg.Warmup, cfg.Window, cfg.FrameSize)
	gen.Stop()
	// Drain the pipeline: rings and queues empty out, every mbuf goes
	// home, so the conservation ledger closes exactly.
	tb.settle(eventsim.Millisecond)
	stopTicks = true

	res.Tables = flowtab.Collect(ffw.FlowTabs())
	st := res.Tables[0].Stats
	if st.Entries > 0 {
		res.BytesPerFlow = float64(st.MemBytes) / float64(st.Entries)
	}
	res.CacheHits, res.CacheMisses = ffw.CacheHits, ffw.CacheMisses
	if st.Lookups > 0 {
		res.HitRate = float64(st.Hits) / float64(st.Lookups)
	}
	res.Churned = gen.Churned()
	res.GenSent = gen.Sent()
	res.AllocFailures = gen.AllocFailures()
	res.TxFrames = txPort.Stats().TxFrames
	res.RxDropped = rxPort.Stats().RxDropped
	res.TxDropped = txPort.Stats().TxDropped
	res.Leaked = tb.pool.InUse()
	res.Sim = tb.sim.Stats()
	return res, nil
}
