package nf

import (
	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// A cached verdict costs one flow-table probe: cheaper than even an
// empty ACL walk (firewallCyclesBase), and independent of rule count —
// the point of flow-aware classification.
const flowFirewallHitCycles = 22.0

// FlowFirewall wraps a stateless Firewall with a per-flow verdict
// cache: the first packet of a flow walks the ACL, later packets of
// the same 5-tuple pay one allocation-free flow-table lookup. With a
// TTL armed the cache self-bounds under churn. Rules are fixed once
// traffic flows: a cached verdict outlives a rule change until it
// expires.
type FlowFirewall struct {
	fw    *Firewall
	flows *flowtab.Table[eth.FiveTuple, FirewallAction]

	CacheHits   uint64
	CacheMisses uint64
}

// FlowFirewallConfig parameterizes NewFlowFirewall.
type FlowFirewallConfig struct {
	// MemBudgetBytes is the hard cache memory budget, the only bound on
	// the number of cached verdicts. Zero is unbudgeted.
	MemBudgetBytes int
	// FlowTTL expires cached verdicts idle for this long. Requires
	// Clock. Zero keeps them until evicted.
	FlowTTL eventsim.Time
	// Clock supplies virtual time for FlowTTL; wire it to Sim.Now.
	Clock func() eventsim.Time
}

// NewFlowFirewall builds a flow-aware front for fw.
func NewFlowFirewall(fw *Firewall, cfg FlowFirewallConfig) (*FlowFirewall, error) {
	flows, err := flowtab.New(flowtab.Config[eth.FiveTuple, FirewallAction]{
		Name:           "fw-flows",
		Hash:           flowtab.HashFiveTuple,
		Clock:          cfg.Clock,
		MemBudgetBytes: cfg.MemBudgetBytes,
		TTL:            cfg.FlowTTL,
	})
	if err != nil {
		return nil, err
	}
	return &FlowFirewall{fw: fw, flows: flows}, nil
}

// FlowTabs exposes the verdict cache for telemetry registration.
func (f *FlowFirewall) FlowTabs() []flowtab.Source {
	return []flowtab.Source{f.flows}
}

// Tick expires idle cached verdicts (no-op without a FlowTTL).
func (f *FlowFirewall) Tick() int { return f.flows.Tick() }

// Process classifies one packet: cached verdict when the flow is known,
// a full ACL walk (through the wrapped firewall, so its counters still
// advance) on the first packet of a flow.
func (f *FlowFirewall) Process(m *mbuf.Mbuf) (Verdict, float64) {
	frame, err := eth.Parse(m.Data())
	if err != nil {
		f.fw.Denied++
		return VerdictDrop, flowFirewallHitCycles
	}
	t := frame.Tuple()
	if a, ok := f.flows.Lookup(t); ok {
		f.CacheHits++
		if *a == FirewallAllow {
			f.fw.Allowed++
			return VerdictForward, flowFirewallHitCycles
		}
		f.fw.Denied++
		return VerdictDrop, flowFirewallHitCycles
	}
	f.CacheMisses++
	verdict, cycles := f.fw.Process(m)
	action := FirewallDeny
	if verdict == VerdictForward {
		action = FirewallAllow
	}
	// Cache the verdict; a refused insert (budget full, no TTL to evict
	// by) just means this flow stays uncached.
	if a, _, err := f.flows.Insert(t); err == nil {
		*a = action
	}
	return verdict, cycles + flowFirewallHitCycles
}
