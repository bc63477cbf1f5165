// Package lint implements dhl-lint, a domain-specific static-analysis
// suite for this module. The Go compiler cannot see DHL's operational
// invariants — the DPDK mempool contract that every Alloc is balanced by a
// Free, that a dropped DHL API error leaves the system other than the
// caller believes, the requirement that the Packer/Distributor data path
// stays allocation-free, or that internal code has a caller outside its
// tests — so these analyzers enforce them at review time instead.
// Everything here is written against the standard library only (go/ast,
// go/parser, go/types); the module stays dependency-free and
// offline-buildable.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of this module; analyzers use it to
// recognise DHL's own API amid arbitrary user code.
const ModulePath = "github.com/opencloudnext/dhl-go"

// Finding is one analyzer diagnostic, positioned at file:line:col.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one domain-specific check run over a type-checked package.
type Analyzer interface {
	// Name identifies the analyzer in findings and -run filters.
	Name() string
	// Doc is a one-line description for usage output.
	Doc() string
	// Check inspects one package and returns its findings.
	Check(pkg *Package) []Finding
}

// ModuleAnalyzer is an analyzer whose invariant spans package boundaries
// (escapecheck's whole-build compiler pass, unreferenced's reachability).
// Run invokes CheckModule once with every loaded package instead of Check
// per package.
type ModuleAnalyzer interface {
	Analyzer
	// CheckModule inspects the whole package set at once.
	CheckModule(pkgs []*Package) []Finding
}

// Analyzers returns the full suite in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		&MbufLeak{},
		&CheckedErr{},
		&EscapeCheck{},
		&Unreferenced{},
	}
}

// Run applies the given analyzers to the given packages and returns all
// findings sorted by position. Findings covered by a //dhl:allow
// directive (see AllowDirective) are dropped before sorting.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	var all []Finding
	for _, a := range analyzers {
		if ma, ok := a.(ModuleAnalyzer); ok {
			all = append(all, ma.CheckModule(pkgs)...)
			continue
		}
		for _, pkg := range pkgs {
			all = append(all, a.Check(pkg)...)
		}
	}
	all = filterAllowed(all, buildAllowIndex(pkgs))
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		if all[i].Line != all[j].Line {
			return all[i].Line < all[j].Line
		}
		if all[i].Col != all[j].Col {
			return all[i].Col < all[j].Col
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all
}

// finding builds a Finding from a token position.
func finding(name string, pos token.Position, format string, args ...any) Finding {
	return Finding{
		Analyzer: name,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// inModule reports whether an import path belongs to this module (or, for
// analyzer test fixtures, mirrors its layout).
func inModule(path string) bool {
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}
