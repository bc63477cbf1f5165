// Command dhl-lint runs the DHL domain-specific static analyzers over the
// module: mbufleak (mempool balance), checkederr (dropped DHL API errors),
// escapecheck (compiler-verified zero heap escapes and no fmt/log/time.Now
// in //dhl:hotpath functions, via `go build -gcflags=-m`) and
// unreferenced (internal/ code no command, example, facade or initializer
// reaches). Everything except escapecheck's
// compiler probe is built only on the standard library's go/ast,
// go/parser and go/types, so the suite runs offline in any environment
// that can build the module itself; when the toolchain cannot run the
// escape probe, that one analyzer degrades to a warning instead of
// failing the gate.
//
// Usage:
//
//	dhl-lint [-format text|json] [-run name[,name...]] [packages...]
//
// Each packages argument is either a directory inside the module or a
// "dir/..." pattern for every package at or below dir ("./..." for the
// module); with no argument the whole module containing the working
// directory is analyzed. unreferenced always judges reachability over the
// whole module (or lint fixture tree), whatever the arguments. Findings
// are printed as file:line:col diagnostics (or, with -format json, a
// JSON array suitable as a CI artifact) and the exit status is 1 when
// any finding is reported, 2 on operational errors.
//
// A finding can be suppressed at the offending line (or the line above)
// with a justified directive:
//
//	//dhl:allow <analyzer> <reason>
//
// Directives without a reason are ignored, so every suppression stays
// self-documenting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/opencloudnext/dhl-go/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	format := flag.String("format", "text", "output format: text or json")
	jsonOut := flag.Bool("json", false, "shorthand for -format json")
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dhl-lint [-format text|json] [-run name,...] [./... | dir ...]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *jsonOut {
		*format = "json"
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "dhl-lint: unknown format %q (want text or json)\n", *format)
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *runList != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var sel []lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name()] {
				sel = append(sel, a)
				delete(want, a.Name())
			}
		}
		for n := range want {
			fmt.Fprintf(os.Stderr, "dhl-lint: unknown analyzer %q\n", n)
			return 2
		}
		analyzers = sel
	}

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"./..."}
	}
	root, err := findModuleRoot(targets[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhl-lint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhl-lint:", err)
		return 2
	}

	var pkgs []*lint.Package
	seen := map[string]bool{}
	for _, target := range targets {
		var batch []*lint.Package
		if dir, ok := strings.CutSuffix(target, "..."); ok {
			batch, err = loader.LoadTree(dir)
		} else if target == root {
			batch, err = loader.LoadAll()
		} else {
			var pkg *lint.Package
			pkg, err = loader.LoadDir(target)
			batch = []*lint.Package{pkg}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dhl-lint:", err)
			return 2
		}
		for _, pkg := range batch {
			if !seen[pkg.ImportPath] {
				seen[pkg.ImportPath] = true
				pkgs = append(pkgs, pkg)
			}
		}
	}

	findings := lint.Run(pkgs, analyzers)
	for i, f := range findings {
		if r, err := filepath.Rel(root, f.File); err == nil && !strings.HasPrefix(r, "..") {
			findings[i].File = r
		}
	}

	// escapecheck's compiler probe degrades, it does not gate: a toolchain
	// that cannot run `go build -gcflags=-m` produces a warning, while a
	// probe that ran and failed (targets do not build) is an operational
	// error.
	probeErr := false
	for _, a := range analyzers {
		esc, ok := a.(*lint.EscapeCheck)
		if !ok {
			continue
		}
		if esc.Unsupported {
			fmt.Fprintln(os.Stderr, "dhl-lint: warning: toolchain cannot run `go build -gcflags=-m`; escapecheck skipped")
		}
		if esc.RunErr != nil {
			fmt.Fprintln(os.Stderr, "dhl-lint:", esc.RunErr)
			probeErr = true
		}
	}

	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "dhl-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "dhl-lint: %d finding(s)\n", len(findings))
		}
	}
	switch {
	case probeErr:
		return 2
	case len(findings) > 0:
		return 1
	}
	return 0
}

// findModuleRoot locates the go.mod directory governing target ("./..."
// style patterns resolve against the working directory).
func findModuleRoot(target string) (string, error) {
	dir := strings.TrimSuffix(target, "...")
	dir = strings.TrimSuffix(dir, "/")
	if dir == "" || dir == "." {
		var err error
		dir, err = os.Getwd()
		if err != nil {
			return "", err
		}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
	}
}
