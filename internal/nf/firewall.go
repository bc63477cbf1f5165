package nf

import (
	"errors"
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// Firewall cycle cost per packet: linear rule evaluation over a small,
// cache-resident ACL, comparable to the Table I shallow NFs.
const firewallCyclesBase = 40.0
const firewallCyclesPerRule = 2.0

// ErrBadFirewallRule reports an invalid ACL entry.
var ErrBadFirewallRule = errors.New("nf: invalid firewall rule")

// FirewallAction is a rule disposition. One byte: it is the value of
// every cached verdict in FlowFirewall's flow table.
type FirewallAction uint8

// Firewall actions.
const (
	FirewallAllow FirewallAction = iota + 1
	FirewallDeny
)

// String names the action.
func (a FirewallAction) String() string {
	switch a {
	case FirewallAllow:
		return "allow"
	case FirewallDeny:
		return "deny"
	default:
		return fmt.Sprintf("FirewallAction(%d)", int(a))
	}
}

// FirewallRule is one ACL entry, matched first-hit-wins. Zero-valued
// fields are wildcards: a zero prefix depth matches any address, a zero
// port range matches any port, proto 0 matches any protocol.
type FirewallRule struct {
	SrcPrefix   uint32
	SrcDepth    uint8
	DstPrefix   uint32
	DstDepth    uint8
	Proto       uint8
	DstPortLo   uint16
	DstPortHi   uint16
	Action      FirewallAction
	Description string
}

func (r FirewallRule) validate() error {
	if r.Action != FirewallAllow && r.Action != FirewallDeny {
		return fmt.Errorf("%w: action %v", ErrBadFirewallRule, r.Action)
	}
	if r.SrcDepth > 32 || r.DstDepth > 32 {
		return fmt.Errorf("%w: prefix depth", ErrBadFirewallRule)
	}
	if r.DstPortHi != 0 && r.DstPortHi < r.DstPortLo {
		return fmt.Errorf("%w: inverted port range", ErrBadFirewallRule)
	}
	return nil
}

func (r FirewallRule) matches(t eth.FiveTuple) bool {
	if r.SrcDepth > 0 {
		m := ^uint32(0) << (32 - uint32(r.SrcDepth))
		if t.Src.Uint32()&m != r.SrcPrefix&m {
			return false
		}
	}
	if r.DstDepth > 0 {
		m := ^uint32(0) << (32 - uint32(r.DstDepth))
		if t.Dst.Uint32()&m != r.DstPrefix&m {
			return false
		}
	}
	if r.Proto != 0 && t.Proto != r.Proto {
		return false
	}
	if r.DstPortHi != 0 && (t.DstPort < r.DstPortLo || t.DstPort > r.DstPortHi) {
		return false
	}
	return true
}

// Firewall is a stateless 5-tuple ACL firewall, a shallow packet
// processing NF from §II-B.
type Firewall struct {
	rules         []FirewallRule
	defaultAction FirewallAction

	Allowed uint64
	Denied  uint64
	// Hits counts first-match hits per rule index.
	Hits []uint64
}

// NewFirewall builds a firewall with a default action for unmatched
// traffic.
func NewFirewall(defaultAction FirewallAction) *Firewall {
	return &Firewall{defaultAction: defaultAction}
}

// AddRule appends an ACL entry (evaluated in insertion order).
func (f *Firewall) AddRule(r FirewallRule) error {
	if err := r.validate(); err != nil {
		return err
	}
	f.rules = append(f.rules, r)
	f.Hits = append(f.Hits, 0)
	return nil
}

// Process evaluates the ACL for one packet.
func (f *Firewall) Process(m *mbuf.Mbuf) (Verdict, float64) {
	cycles := firewallCyclesBase
	frame, err := eth.Parse(m.Data())
	if err != nil {
		f.Denied++
		return VerdictDrop, cycles
	}
	t := frame.Tuple()
	action := f.defaultAction
	for i, r := range f.rules {
		cycles += firewallCyclesPerRule
		if r.matches(t) {
			action = r.Action
			f.Hits[i]++
			break
		}
	}
	if action == FirewallAllow {
		f.Allowed++
		return VerdictForward, cycles
	}
	f.Denied++
	return VerdictDrop, cycles
}
