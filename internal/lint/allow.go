package lint

import (
	"strings"
)

// AllowDirective is the comment directive that suppresses one analyzer's
// finding on the line it annotates:
//
//	ev := &event{...} //dhl:allow escapecheck freelist refill is cold
//
// or, on the line directly above the finding:
//
//	//dhl:allow unreferenced the flow-state failover audit checks the NAT bijection with it
//	func (n *NAT) CheckConsistency() error {
//
// A directive must name the analyzer it silences and carry a non-empty
// justification; a bare `//dhl:allow unreferenced` is ignored (and so still
// fails the gate), which keeps every suppression self-documenting.
const AllowDirective = "dhl:allow"

// allowIndex records, per file and line, which analyzers have been
// granted a suppression there.
type allowIndex map[string]map[int][]string

// buildAllowIndex scans every comment of every package for
// //dhl:allow directives.
func buildAllowIndex(pkgs []*Package) allowIndex {
	idx := make(allowIndex)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					name, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Position(c.Pos())
					lines := idx[pos.Filename]
					if lines == nil {
						lines = make(map[int][]string)
						idx[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line], name)
				}
			}
		}
	}
	return idx
}

// parseAllow extracts the analyzer name from one comment's text, requiring
// a justification after the name.
func parseAllow(text string) (string, bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, AllowDirective)
	if !ok {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 { // analyzer name plus at least one reason word
		return "", false
	}
	return fields[0], true
}

// allows reports whether a finding by the named analyzer at file:line is
// covered by a directive on the same line or the line above.
func (idx allowIndex) allows(f Finding) bool {
	lines, ok := idx[f.File]
	if !ok {
		return false
	}
	for _, line := range [2]int{f.Line, f.Line - 1} {
		for _, name := range lines[line] {
			if name == f.Analyzer {
				return true
			}
		}
	}
	return false
}

// filterAllowed drops findings covered by an allow directive.
func filterAllowed(all []Finding, idx allowIndex) []Finding {
	if len(idx) == 0 {
		return all
	}
	kept := all[:0]
	for _, f := range all {
		if !idx.allows(f) {
			kept = append(kept, f)
		}
	}
	return kept
}
