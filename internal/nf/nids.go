package nf

import (
	"github.com/opencloudnext/dhl-go/internal/acmatch"
	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// NIDSStats counts signature hits per disposition, and apart from them
// the frames the DHL version dropped because its accelerator never
// scanned them.
type NIDSStats struct {
	Scanned     uint64
	Alerts      uint64
	Dropped     uint64
	Unprocessed uint64
}

// NIDSSW is the CPU-only signature NIDS of Figure 6(c): Aho-Corasick
// pattern matching over the whole packet followed by rule-option
// evaluation (Figure 5(b)).
type NIDSSW struct {
	rules *RuleSet
	Stats NIDSStats
}

// NewNIDSSW builds the NIDS over a compiled rule set.
func NewNIDSSW(rules *RuleSet) *NIDSSW {
	return &NIDSSW{rules: rules}
}

// Process scans one packet and applies the first matching rule's action.
// It returns the verdict and the modeled worker cycle cost.
func (n *NIDSSW) Process(m *mbuf.Mbuf) (Verdict, float64) {
	cycles := perf.NIDSSWBaseCycles + perf.NIDSSWCyclesPerByte*float64(m.Len())
	n.Stats.Scanned++
	// NIDS "uses DPI to inspect the entire packet" (§V-B2), so the scan
	// covers the whole frame, exactly like the hardware AC-DFA does.
	verdict := VerdictForward
	first := -1
	n.rules.matcher.Scan(m.Data(), func(mt acmatch.Match) {
		if first < 0 {
			first = mt.PatternID
		}
	})
	if first >= 0 {
		rule, rerr := n.rules.Rule(first)
		if rerr == nil && rule.Action == ActionDrop {
			n.Stats.Dropped++
			verdict = VerdictDrop
		} else {
			n.Stats.Alerts++
		}
	}
	return verdict, cycles
}

// NIDSDHL is the DHL-version NIDS: pattern matching offloaded to the
// pattern-matching hardware function, pre-processing and rule options in
// software.
type NIDSDHL struct {
	rules *RuleSet
	offload

	Stats NIDSStats
}

// NewNIDSDHL registers with the runtime, resolves pattern-matching and
// pushes the compiled rule set's patterns as the module configuration.
func NewNIDSDHL(rt *core.Runtime, rules *RuleSet, name string, node int) (*NIDSDHL, error) {
	blob, err := hwfunc.EncodePatternConfig(rules.Patterns(), rules.CaseFold())
	if err != nil {
		return nil, err
	}
	off, err := openOffload(rt, name, node, hwfunc.PatternMatchingName, blob)
	if err != nil {
		return nil, err
	}
	return &NIDSDHL{rules: rules, offload: off}, nil
}

// PreProcess tags the raw frame for the pattern-matching module.
func (n *NIDSDHL) PreProcess(m *mbuf.Mbuf) (Verdict, float64) {
	n.Stats.Scanned++
	m.AccID = uint16(n.AccID)
	return VerdictForward, perf.NFShallowNIDSCycles
}

// PostProcess consumes the match trailer appended by the hardware
// function and evaluates rule options. A frame the module never scanned
// (StatusUnprocessed: quarantined, no fallback) carries no trailer and is
// dropped: the NIDS fails closed.
func (n *NIDSDHL) PostProcess(m *mbuf.Mbuf) (Verdict, float64) {
	if m.Status == mbuf.StatusUnprocessed {
		n.Stats.Unprocessed++
		return VerdictDrop, perf.NFPostNIDSCycles
	}
	_, count, first, err := hwfunc.DecodePatternTrailer(m.Data())
	if err != nil {
		n.Stats.Dropped++
		return VerdictDrop, perf.NFPostNIDSCycles
	}
	if terr := m.Trim(hwfunc.PatternMatchTrailer); terr != nil {
		n.Stats.Dropped++
		return VerdictDrop, perf.NFPostNIDSCycles
	}
	if count == 0 {
		return VerdictForward, perf.NFPostNIDSCycles
	}
	rule, rerr := n.rules.Rule(int(first))
	if rerr == nil && rule.Action == ActionDrop {
		n.Stats.Dropped++
		return VerdictDrop, perf.NFPostNIDSCycles
	}
	n.Stats.Alerts++
	return VerdictForward, perf.NFPostNIDSCycles
}
