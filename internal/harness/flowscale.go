package harness

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
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
	// NICRateBps defaults to 40G; OfferedWireBps to line rate.
	NICRateBps     float64
	OfferedWireBps float64
	// Warmup and Window bound the measurement (defaults 2 ms and 10 ms).
	Warmup eventsim.Time
	Window eventsim.Time
	// MaxFlows caps the verdict cache (0: unbounded); MemBudgetBytes is
	// its hard memory budget (0: unbudgeted). FlowTTL expires idle
	// verdicts (default 50 ms so churned-out flows age away).
	MaxFlows       int
	MemBudgetBytes int
	FlowTTL        eventsim.Time
	// PoolCapacity overrides the testbed mbuf pool size.
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
	if c.NICRateBps == 0 {
		c.NICRateBps = perf.NIC40GBps
	}
	if c.OfferedWireBps == 0 {
		c.OfferedWireBps = c.NICRateBps
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

	// Births/Deaths count generator flow churn events.
	Births uint64
	Deaths uint64

	// Drop attribution: every generated frame lands in exactly one of
	// TxFrames (delivered), RxDropped (NIC queue overflow), NFDropped
	// (firewall deny + ring overflow), or TxDropped.
	GenSent   uint64
	TxFrames  uint64
	RxDropped uint64
	NFDropped uint64
	TxDropped uint64
	// Leaked is pool.InUse after the drain: must be 0.
	Leaked int
}

// CheckConservation verifies the drop-attribution ledger balances
// exactly and nothing leaked: generated = delivered + attributed drops.
func (r FlowScaleResult) CheckConservation() error {
	if r.Leaked != 0 {
		return fmt.Errorf("harness: flowscale leaked %d mbufs", r.Leaked)
	}
	accounted := r.TxFrames + r.RxDropped + r.NFDropped + r.TxDropped
	if r.GenSent != accounted {
		return fmt.Errorf("harness: flowscale ledger off by %d: sent %d != tx %d + rxdrop %d + nfdrop %d + txdrop %d",
			int64(r.GenSent)-int64(accounted), r.GenSent, r.TxFrames, r.RxDropped, r.NFDropped, r.TxDropped)
	}
	return nil
}

// CheckMemBudget verifies every table stayed within the configured
// memory budget (a flowtab invariant — growth is refused at the
// budget — so a violation means the accounting itself broke).
func (r FlowScaleResult) CheckMemBudget() error {
	if r.Config.MemBudgetBytes <= 0 {
		return nil
	}
	for _, t := range r.Tables {
		if t.MemBytes > uint64(r.Config.MemBudgetBytes) {
			return fmt.Errorf("harness: table %s at %d bytes exceeds the %d budget",
				t.Name, t.MemBytes, r.Config.MemBudgetBytes)
		}
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
	rxPort, txPort, err := tb.portPair(netdev.PortConfig{ID: 0, RateBps: cfg.NICRateBps, RxQueues: 2}, 1)
	if err != nil {
		return res, err
	}

	fw := nf.NewFirewall(nf.FirewallAllow)
	if err := flowScaleRules(fw); err != nil {
		return res, err
	}
	ffw, err := nf.NewFlowFirewall(fw, nf.FlowFirewallConfig{
		MaxFlows:       cfg.MaxFlows,
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
	res.Births, res.Deaths = gen.Births(), gen.Deaths()
	res.GenSent = gen.Sent()
	res.TxFrames = txPort.Stats().TxFrames
	res.RxDropped = rxPort.Stats().RxDropped
	res.TxDropped = txPort.Stats().TxDropped
	res.Leaked = tb.pool.InUse()
	return res, nil
}

// --- flow-state consistency across fallback/recovery --------------------

// flowStateFailoverConfig parameterizes runFlowStateFailover.
type flowStateFailoverConfig struct {
	// Seed drives the deterministic fault plan (default 42).
	Seed uint64
	// Flows is the NAT'd flow population (default 512; must fit the
	// NAT's port pool).
	Flows int
	// Packets is the paced packet budget (default 9600, enough to span
	// the ~29 ms ICAP reload).
	Packets int
	// FrameSize is the inner Ethernet frame size (default 128).
	FrameSize int
}

func (c flowStateFailoverConfig) withDefaults() flowStateFailoverConfig {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Flows == 0 {
		c.Flows = 512
	}
	if c.Packets == 0 {
		c.Packets = 9600
	}
	if c.FrameSize == 0 {
		c.FrameSize = 128
	}
	return c
}

// flowStateFailoverResult reports the run's transitions, the
// conservation ledger, and the flow-state audit.
type flowStateFailoverResult struct {
	// Transition evidence: the run must actually have gone through
	// quarantine -> fallback -> reload.
	Quarantines uint64
	Reloads     uint64
	DeliveredOK uint64
	// DeliveredFallback counts packets the software fallback processed
	// while the region reloaded.
	DeliveredFallback    uint64
	DeliveredUnprocessed uint64

	// Flow-state audit against the shadow model.
	Mappings      int
	ShadowEntries int
	// PortMismatches counts flows whose NAT mapping diverged from the
	// shadow model's recorded external port (must be 0: translations
	// are stable across fault transitions).
	PortMismatches int

	Stats  core.TransferStats
	Leaked int
}

// runFlowStateFailover drives NAT'd traffic through the DHL ipsec
// accelerator while a persistent SEU forces quarantine -> software
// fallback -> ICAP reload -> recovery, then audits the NAT's flow
// state against a shadow model: every live flow still maps to the
// external port recorded at first translation, the outbound/inbound
// tables are an exact bijection (no orphaned inbound entries, no
// double-allocated ports), and the transfer ledger still balances.
// Host-side flow state must be completely insulated from accelerator
// fault transitions — that is the property under test.
func runFlowStateFailover(cfg flowStateFailoverConfig) (*flowStateFailoverResult, error) {
	cfg = cfg.withDefaults()
	res := &flowStateFailoverResult{}
	tb, err := newTestbed(0)
	if err != nil {
		return nil, err
	}
	plan, err := faultinject.NewPlan(cfg.Seed, failoverSpecs(cfg.Packets)...)
	if err != nil {
		return nil, err
	}
	rt, _, _, err := tb.newRuntime(pcie.Config{}, core.Config{
		BatchBytes:   2048,
		FlushTimeout: 5 * eventsim.Microsecond,
		Faults:       plan,
	})
	if err != nil {
		return nil, err
	}
	nfID, acc, err := tb.openIPsecCrypto(rt, "flowstate-gw", true)
	if err != nil {
		return nil, err
	}

	// The NAT under audit: TTL armed but longer than the whole run, so
	// idle expiry never fires and the shadow model must match exactly.
	nat := nf.NewNAT(nf.NATConfig{
		External: eth.IPv4{203, 0, 113, 7},
		FlowTTL:  10 * eventsim.Second,
		Clock:    tb.sim.Now,
	})
	// shadow records each flow's external port at first translation.
	shadow := make(map[uint64]uint16, cfg.Flows)

	frameBuf := make([]byte, 2048)
	buildFlowFrame := func(flow uint64) ([]byte, error) {
		src, srcPort := netdev.FlowSrc(flow)
		n, berr := eth.Build(frameBuf, eth.BuildConfig{
			SrcMAC: eth.MAC{2, 0, 0, 0, 0, 1}, DstMAC: eth.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: src, DstIP: eth.IPv4{198, 51, 100, 1},
			SrcPort: srcPort, DstPort: 4500, Proto: eth.ProtoUDP,
			Payload: make([]byte, cfg.FrameSize),
		})
		if berr != nil {
			return nil, berr
		}
		return frameBuf[:n], nil
	}

	// fill is the host-side stateful stage: translate, audit against the
	// shadow model — a remapped flow is an immediate fail — and wrap the
	// translated frame as an ipsec request record (2-byte encryption
	// offset, 0 = whole frame, then the frame).
	fill := func(seq int, m *mbuf.Mbuf) (bool, error) {
		flow := uint64(seq % cfg.Flows)
		frame, err := buildFlowFrame(flow)
		if err != nil {
			return false, err
		}
		if err := m.AppendBytes(frame); err != nil {
			return false, err
		}
		if v, _ := nat.ProcessOutbound(m); v != nf.VerdictForward {
			return false, nil
		}
		f, err := eth.Parse(m.Data())
		if err != nil {
			return false, err
		}
		ext := f.SrcPort()
		if prev, ok := shadow[flow]; !ok {
			shadow[flow] = ext
		} else if prev != ext {
			return false, fmt.Errorf("harness: flow %d remapped %d -> %d mid-run", flow, prev, ext)
		}
		hdr, err := m.Prepend(hwfunc.IPsecReqPrefix)
		if err != nil {
			return false, err
		}
		binary.BigEndian.PutUint16(hdr, 0)
		return true, nil
	}
	var run FailoverRun
	if err := tb.pace(rt, nfID, acc, cfg.Packets, fill, nil, &run); err != nil {
		return nil, err
	}
	res.DeliveredOK = run.DeliveredOK
	res.DeliveredFallback = run.DeliveredFallback
	res.DeliveredUnprocessed = run.DeliveredUnprocessed
	res.Quarantines = run.Health.Quarantines
	res.Reloads = run.Health.Reloads
	res.Stats = run.Stats

	// The audit: bijection invariants, then shadow-model equivalence.
	if err := nat.CheckConsistency(); err != nil {
		return nil, err
	}
	res.Mappings = nat.Mappings()
	res.ShadowEntries = len(shadow)
	for flow, want := range shadow {
		frame, ferr := buildFlowFrame(flow)
		if ferr != nil {
			return nil, ferr
		}
		m, aerr := tb.pool.Alloc()
		if aerr != nil {
			return nil, aerr
		}
		if err := m.AppendBytes(frame); err != nil {
			return nil, errors.Join(err, tb.pool.Free(m))
		}
		v, _ := nat.ProcessOutbound(m)
		f, perr := eth.Parse(m.Data())
		if v != nf.VerdictForward || perr != nil || f.SrcPort() != want {
			res.PortMismatches++
		}
		if err := tb.pool.Free(m); err != nil {
			return nil, err
		}
	}

	res.Leaked = tb.pool.InUse()
	return res, nil
}
