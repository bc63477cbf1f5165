package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// EscapeCheck enforces the `//dhl:hotpath` directive: functions so
// annotated form the per-packet data path (Packer staging, Distributor
// demultiplexing, ring push/pop, mbuf alloc/free) and must not allocate.
// Whether something allocates is the compiler's call, not a guess from
// syntax: the analyzer runs the real escape analysis (`go build
// -gcflags=-m`) over every package containing a //dhl:hotpath function
// and flags any "escapes to heap" / "moved to heap" diagnostic landing
// inside such a function's body. That catches closures capturing by
// reference, boxing through generic instantiation and address-taken
// locals, and stays quiet about a map literal, a make or an interface
// conversion the compiler keeps on the stack.
//
// What the compiler cannot see is cost that is not an allocation in the
// function itself, so an AST pass over the same bodies also forbids calls
// into fmt and log (which format via reflection and lock) and
// time.Now/time.Since (which syscall; the data path uses the simulated
// clock). Amortized per-batch work belongs in unannotated helpers; the
// directive is per-function so the hot loop can call out to cold code.
//
// The compiler probe shells out to the go tool; when the toolchain cannot
// run it (no go binary, a compiler without -gcflags=-m) the analyzer
// records Unsupported and reports only the AST findings, so the CLI can
// degrade the step to a warning instead of failing the gate on an exotic
// toolchain.
type EscapeCheck struct {
	// Unsupported is set when the toolchain cannot run `go build
	// -gcflags=-m`; the compiler findings are then missing.
	Unsupported bool
	// RunErr records a compiler invocation failure other than an
	// unsupported toolchain (e.g. the target packages do not build).
	RunErr error
}

// Directive is the comment that marks a function as hot-path.
const Directive = "dhl:hotpath"

// Name implements Analyzer.
func (*EscapeCheck) Name() string { return "escapecheck" }

// Doc implements Analyzer.
func (*EscapeCheck) Doc() string {
	return "flags compiler-proven heap escapes (go build -gcflags=-m) and fmt/log/time.Now calls inside //dhl:hotpath functions"
}

// Check implements Analyzer; per-package operation delegates to the
// module-wide pass so direct use still works.
func (e *EscapeCheck) Check(pkg *Package) []Finding {
	return e.CheckModule([]*Package{pkg})
}

// hotRange is one //dhl:hotpath function's body extent in a file.
type hotRange struct {
	fn         string
	start, end int
}

// CheckModule implements ModuleAnalyzer.
func (e *EscapeCheck) CheckModule(pkgs []*Package) []Finding {
	e.Unsupported = false
	e.RunErr = nil
	// Collect hotpath body ranges per file and the package dirs to build;
	// denied calls need no compiler.
	var findings []Finding
	ranges := make(map[string][]hotRange)
	dirOf := make(map[string]string) // import path -> directory
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasDirective(fd.Doc, Directive) {
					continue
				}
				p0 := pkg.Position(fd.Pos())
				p1 := pkg.Position(fd.Body.Rbrace)
				ranges[p0.Filename] = append(ranges[p0.Filename],
					hotRange{fn: fd.Name.Name, start: p0.Line, end: p1.Line})
				dirOf[pkg.ImportPath] = pkg.Dir
				findings = append(findings, e.deniedCalls(pkg, fd)...)
			}
		}
	}
	if len(dirOf) == 0 {
		return nil
	}
	var dirs []string
	for _, d := range dirOf {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	root := pkgs[0].loader.Root
	out, err := runEscapeBuild(root, dirs)
	if err != nil {
		if isUnsupportedToolchain(err, out) {
			e.Unsupported = true
		} else {
			e.RunErr = fmt.Errorf("escapecheck: go build -gcflags=-m: %w\n%s", err, out)
		}
		return findings
	}
	return append(findings, e.parseEscapes(root, out, ranges, dirOf)...)
}

// deniedCalls flags the calls in a hot body that cost more than their
// allocations show: fmt, log, time.Now and time.Since.
func (e *EscapeCheck) deniedCalls(pkg *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := calleeOf(pkg.Info, call); f != nil {
			if reason, bad := deniedCall(f); bad {
				out = append(out, finding(e.Name(), pkg.Position(call.Pos()),
					"%s: call to %s on the hot path (%s)", fd.Name.Name, f.FullName(), reason))
			}
		}
		return true
	})
	return out
}

// deniedCall reports whether a resolved callee is on the hot-path
// denylist, with a reason.
func deniedCall(f *types.Func) (string, bool) {
	if f.Pkg() == nil {
		return "", false
	}
	switch f.Pkg().Path() {
	case "fmt":
		return "fmt." + f.Name() + " allocates and formats via reflection", true
	case "log":
		return "log." + f.Name() + " allocates and locks", true
	case "time":
		if f.Name() == "Now" || f.Name() == "Since" {
			return "time." + f.Name() + " syscalls; use the simulation clock", true
		}
	}
	return "", false
}

// runEscapeBuild invokes the compiler with escape-analysis diagnostics on
// the given package directories. The go tool replays cached diagnostics,
// so repeat runs stay cheap.
func runEscapeBuild(root string, dirs []string) (string, error) {
	if _, err := exec.LookPath("go"); err != nil {
		return "", fmt.Errorf("go tool not found: %w", err)
	}
	args := []string{"build", "-gcflags=-m"}
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return "", err
		}
		args = append(args, "./"+filepath.ToSlash(rel))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// isUnsupportedToolchain classifies a failed build as "this toolchain
// cannot run the probe" rather than "the code does not compile".
func isUnsupportedToolchain(err error, out string) bool {
	if _, ok := err.(*exec.Error); ok { // go binary missing or not runnable
		return true
	}
	for _, marker := range []string{
		"flag provided but not defined",
		"unknown flag",
		"unsupported flag",
		"usage: go build",
	} {
		if strings.Contains(out, marker) {
			return true
		}
	}
	return false
}

// parseEscapes extracts the heap-escape diagnostics that land inside a
// hotpath body. Compiler paths are relative to the module root, or, in
// diagnostics the go tool replays from its cache, to the directory of the
// package named by the preceding "# import/path" line.
func (e *EscapeCheck) parseEscapes(root, out string, ranges map[string][]hotRange, dirOf map[string]string) []Finding {
	var findings []Finding
	pkgDir := root
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if path, ok := strings.CutPrefix(line, "# "); ok {
			pkgDir = root
			if d, ok := dirOf[path]; ok {
				pkgDir = d
			}
			continue
		}
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		file, ln, col, msg, ok := splitDiagnostic(line)
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(file, "./"):
			file = filepath.Join(pkgDir, file)
		case !filepath.IsAbs(file):
			file = filepath.Join(root, file)
		}
		for _, r := range ranges[file] {
			if ln < r.start || ln > r.end {
				continue
			}
			findings = append(findings, Finding{
				Analyzer: e.Name(),
				File:     file,
				Line:     ln,
				Col:      col,
				Message: fmt.Sprintf("%s: compiler-proven heap escape inside //dhl:hotpath function: %s",
					r.fn, msg),
			})
			break
		}
	}
	return findings
}

// splitDiagnostic parses one `file:line:col: message` compiler line.
func splitDiagnostic(line string) (file string, ln, col int, msg string, ok bool) {
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 {
		return "", 0, 0, "", false
	}
	ln, err1 := strconv.Atoi(parts[1])
	col, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		return "", 0, 0, "", false
	}
	return parts[0], ln, col, strings.TrimSpace(parts[3]), true
}
