package nf

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/redfa"
)

// DPI cycle model: regex scanning in software costs several cycles per
// byte per active DFA (DPI engines are the classic deep-packet-processing
// bottleneck the paper cites via [23]).
const (
	dpiSWBaseCycles    = 650.0
	dpiSWCyclesPerByte = 5.1
	dpiShallowCycles   = 24.0
	dpiPostCycles      = 10.0
)

// DPIRule is one classification rule: a regex and the class it assigns.
type DPIRule struct {
	Pattern string
	Class   string
}

// DPIClassifierSW is the CPU-only traffic classifier: every packet is
// matched against the rule DFAs in software.
type DPIClassifierSW struct {
	rules []DPIRule
	dfas  []*redfa.DFA

	// ClassCounts tallies packets per class name ("" = unclassified).
	ClassCounts map[string]uint64
}

// NewDPIClassifierSW compiles the rule set.
func NewDPIClassifierSW(rules []DPIRule) (*DPIClassifierSW, error) {
	if len(rules) == 0 || len(rules) > 16 {
		return nil, fmt.Errorf("nf: dpi takes 1..16 rules, got %d", len(rules))
	}
	c := &DPIClassifierSW{rules: rules, ClassCounts: make(map[string]uint64)}
	for i, r := range rules {
		d, err := redfa.Compile(r.Pattern, redfa.CompileConfig{})
		if err != nil {
			return nil, fmt.Errorf("nf: dpi rule %d: %w", i, err)
		}
		c.dfas = append(c.dfas, d)
	}
	return c, nil
}

// Process classifies one packet (first matching rule wins) and stores the
// class index in the mbuf's Userdata (0 = unclassified, i+1 = rule i).
func (c *DPIClassifierSW) Process(m *mbuf.Mbuf) (Verdict, float64) {
	cycles := dpiSWBaseCycles + dpiSWCyclesPerByte*float64(m.Len())*float64(len(c.dfas))
	m.Userdata = 0
	for i, d := range c.dfas {
		if d.Match(m.Data()) {
			m.Userdata = uint64(i + 1)
			c.ClassCounts[c.rules[i].Class]++
			return VerdictForward, cycles
		}
	}
	c.ClassCounts[""]++
	return VerdictForward, cycles
}

// DPIClassifierDHL offloads the regex matching to the regex-classifier
// hardware function; rule-to-class mapping stays in software.
type DPIClassifierDHL struct {
	rules []DPIRule
	offload

	ClassCounts map[string]uint64
	Dropped     uint64
}

// NewDPIClassifierDHL registers with the runtime and configures the
// regex-classifier module with the rule patterns.
func NewDPIClassifierDHL(rt *core.Runtime, rules []DPIRule, name string, node int) (*DPIClassifierDHL, error) {
	if len(rules) == 0 || len(rules) > 16 {
		return nil, fmt.Errorf("nf: dpi takes 1..16 rules, got %d", len(rules))
	}
	patterns := make([]string, len(rules))
	for i, r := range rules {
		patterns[i] = r.Pattern
	}
	blob, err := hwfunc.EncodeRegexConfig(patterns)
	if err != nil {
		return nil, err
	}
	off, err := openOffload(rt, name, node, hwfunc.RegexClassifierName, blob)
	if err != nil {
		return nil, err
	}
	return &DPIClassifierDHL{rules: rules, offload: off, ClassCounts: make(map[string]uint64)}, nil
}

// PreProcess tags the packet for the hardware function.
func (c *DPIClassifierDHL) PreProcess(m *mbuf.Mbuf) (Verdict, float64) {
	m.AccID = uint16(c.AccID)
	return VerdictForward, dpiShallowCycles
}

// PostProcess consumes the classification trailer, records the class and
// stores the class index in Userdata.
func (c *DPIClassifierDHL) PostProcess(m *mbuf.Mbuf) (Verdict, float64) {
	_, bitmap, first, err := hwfunc.DecodeRegexTrailer(m.Data())
	if err != nil {
		c.Dropped++
		return VerdictDrop, dpiPostCycles
	}
	if terr := m.Trim(hwfunc.RegexTrailer); terr != nil {
		c.Dropped++
		return VerdictDrop, dpiPostCycles
	}
	m.Userdata = 0
	if bitmap != 0 && int(first) < len(c.rules) {
		m.Userdata = uint64(first + 1)
		c.ClassCounts[c.rules[first].Class]++
	} else {
		c.ClassCounts[""]++
	}
	return VerdictForward, dpiPostCycles
}

// DefaultDPIRules returns a small application-classification rule set.
func DefaultDPIRules() []DPIRule {
	return []DPIRule{
		{Pattern: `(GET|POST|HEAD) /`, Class: "http"},
		{Pattern: `^\x16\x03[\x00-\x03]`, Class: "tls"},
		{Pattern: `BitTorrent protocol`, Class: "bittorrent"},
		{Pattern: `SSH-[12]\.`, Class: "ssh"},
		{Pattern: `\d\d\d\d-\d\d-\d\d.*password=`, Class: "credential-leak"},
	}
}
