package nf

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// NAT cycle cost: a hash lookup plus header rewrite sits between L2fwd's
// 36 and L3fwd's 60 cycles on the Table I testbed.
const natCycles = 55.0

// Errors returned by the NAT.
var (
	ErrNATPortsExhausted = errors.New("nf: NAT port pool exhausted")
	ErrNATFlowsExhausted = errors.New("nf: NAT flow table full")
)

// NAT implements source network address and port translation, one of the
// shallow packet processing NFs of §II-B ("Executing operations based on
// the packet header ... such as NAT").
//
// Outbound packets (from the inside interface) get their source rewritten
// to the external address and an allocated external port.
//
// Translation state is one flowtab table keyed by the internal endpoint, so
// the hit path is allocation-free at millions of flows and, with FlowTTL
// armed, idle translations expire off the clock wheel. A bitset over the
// port range records which external ports are taken: a translation sets
// its port's bit, and its eviction clears it.
type NAT struct {
	external eth.IPv4
	base     uint16
	nextPort uint16
	maxPort  uint16

	outbound *flowtab.Table[natKey, uint16]
	// used has bit p-base set while external port p is held.
	used []uint64

	Translated uint64
	Dropped    uint64
}

type natKey struct {
	ip    eth.IPv4
	port  uint16
	proto uint8
}

func hashNATKey(k natKey) uint64 {
	return flowtab.Mix64(uint64(k.ip.Uint32())<<24 | uint64(k.port)<<8 | uint64(k.proto))
}

// NATConfig parameterizes NewNAT.
type NATConfig struct {
	// External is the public address translations use.
	External eth.IPv4
	// PortBase and PortCount bound the external port pool. A zero
	// PortBase selects 20000..60000; a range running past 65535 is
	// clamped to it.
	//
	//dhl:allow unreferenced the NAT's port-exhaustion and cursor-wrap tests need a pool of a few ports
	PortBase, PortCount uint16
	// MaxFlows caps concurrent translations below the port-pool bound
	// (table capacity stops doubling at this power of two). Zero leaves
	// the pool as the only bound.
	//
	//dhl:allow unreferenced NAT aging: the flow-state audit and the NAT flow-table tests cap it
	MaxFlows int
	// FlowTTL expires translations idle for this long; every translated
	// packet counts as activity. Requires Clock. Zero keeps mappings
	// forever, the pre-flowtab behavior.
	//
	//dhl:allow unreferenced NAT aging: the flow-state audit arms it
	FlowTTL eventsim.Time
	// Clock supplies virtual time for FlowTTL; wire it to Sim.Now.
	//
	//dhl:allow unreferenced NAT aging: the flow-state audit wires it to Sim.Now
	Clock func() eventsim.Time
}

// NewNAT builds a source NAT. It panics on a config the flow table
// cannot be built from (FlowTTL without Clock) — a programming error,
// not a runtime condition.
func NewNAT(cfg NATConfig) *NAT {
	if cfg.PortBase == 0 {
		cfg.PortBase = 20000
		cfg.PortCount = 40000
	}
	maxPort := int(cfg.PortBase) + int(cfg.PortCount) - 1
	if maxPort > 65535 {
		maxPort = 65535
	}
	n := &NAT{
		external: cfg.External,
		base:     cfg.PortBase,
		nextPort: cfg.PortBase,
		maxPort:  uint16(maxPort),
		used:     make([]uint64, (maxPort-int(cfg.PortBase))/64+1),
	}
	initial := 1024
	if cfg.MaxFlows > 0 && cfg.MaxFlows < initial {
		initial = cfg.MaxFlows
	}
	var err error
	n.outbound, err = flowtab.New(flowtab.Config[natKey, uint16]{
		Name:           "nat-outbound",
		Hash:           hashNATKey,
		Clock:          cfg.Clock,
		InitialEntries: initial,
		MaxEntries:     cfg.MaxFlows,
		TTL:            cfg.FlowTTL,
		// An idle translation timing out (or being pressure-evicted)
		// must free its external port.
		OnEvict: func(_ natKey, ext *uint16) { n.setUsed(*ext, false) },
	})
	if err != nil {
		panic(fmt.Sprintf("nf: NAT outbound table: %v", err))
	}
	return n
}

// Mappings reports the number of active translations.
func (n *NAT) Mappings() int { return n.outbound.Len() }

// ProcessOutbound translates an inside->outside packet in place. It
// returns the verdict and cycle cost.
func (n *NAT) ProcessOutbound(m *mbuf.Mbuf) (Verdict, float64) {
	frame, err := eth.Parse(m.Data())
	if err != nil || (frame.Proto() != eth.ProtoTCP && frame.Proto() != eth.ProtoUDP) {
		n.Dropped++
		return VerdictDrop, natCycles
	}
	key := natKey{ip: frame.SrcIP(), port: frame.SrcPort(), proto: frame.Proto()}
	var ext uint16
	if p, ok := n.outbound.Lookup(key); ok {
		ext = *p
	} else {
		ext, err = n.allocate(key)
		if err != nil {
			n.Dropped++
			return VerdictDrop, natCycles
		}
	}
	frame.SetSrcIP(n.external)
	setL4SrcPort(frame, ext)
	frame.SetIPChecksum(frame.ComputeIPChecksum())
	n.Translated++
	return VerdictForward, natCycles
}

func (n *NAT) allocate(key natKey) (uint16, error) {
	capacity := int(n.maxPort-n.base) + 1
	if n.outbound.Len() >= capacity {
		return 0, fmt.Errorf("%w (%d mappings)", ErrNATPortsExhausted, n.outbound.Len())
	}
	for n.isUsed(n.nextPort) {
		n.advance()
	}
	p := n.nextPort
	n.advance()
	// At the MaxFlows cap with a TTL armed this pressure-evicts the
	// translation nearest expiry (freeing its port via OnEvict); without a
	// TTL it reports full.
	ext, _, err := n.outbound.Insert(key)
	if err != nil {
		return 0, fmt.Errorf("%w (%d flows): %v", ErrNATFlowsExhausted, n.outbound.Len(), err)
	}
	*ext = p
	n.setUsed(p, true)
	return p, nil
}

func (n *NAT) advance() {
	if n.nextPort >= n.maxPort {
		n.nextPort = n.base
		return
	}
	n.nextPort++
}

func (n *NAT) isUsed(p uint16) bool {
	i := p - n.base
	return n.used[i/64]&(1<<(i%64)) != 0
}

func (n *NAT) setUsed(p uint16, on bool) {
	i := p - n.base
	if on {
		n.used[i/64] |= 1 << (i % 64)
	} else {
		n.used[i/64] &^= 1 << (i % 64)
	}
}

// CheckConsistency verifies the port bitset is exactly the set of ports the
// translations hold: no external port is double-allocated, every
// translation's port bit is set, and no bit is set that no translation
// owns. Cold — the fallback/recovery harness runs it after soaks and
// transitions.
//
//dhl:allow unreferenced the flow-state failover audit checks the NAT bijection with it
func (n *NAT) CheckConsistency() error {
	var err error
	owners := make(map[uint16]natKey, n.outbound.Len())
	n.outbound.Range(func(k natKey, ext *uint16) bool {
		if prev, dup := owners[*ext]; dup {
			err = fmt.Errorf("nf: NAT port %d double-allocated (%v:%d and %v:%d)",
				*ext, prev.ip, prev.port, k.ip, k.port)
			return false
		}
		owners[*ext] = k
		if !n.isUsed(*ext) {
			err = fmt.Errorf("nf: NAT translation %v:%d -> %d holds a port marked free", k.ip, k.port, *ext)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	set := 0
	for _, w := range n.used {
		set += bits.OnesCount64(w)
	}
	if set == n.outbound.Len() {
		return nil
	}
	// Every owner's bit is set, so the surplus bits are ports no
	// translation holds: name the first.
	p := n.base
	for ; ; p++ {
		if _, owned := owners[p]; n.isUsed(p) && !owned {
			break
		}
	}
	return fmt.Errorf("nf: NAT port set out of sync: %d outbound, %d ports marked used; port %d has no translation",
		n.outbound.Len(), set, p)
}

func setL4SrcPort(f eth.Frame, port uint16) {
	l4 := f.L4()
	if len(l4) >= 2 {
		l4[0] = byte(port >> 8)
		l4[1] = byte(port)
	}
}
