package lint

import (
	"go/types"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/ctlplane"
)

// sharedLoader memoizes one Loader across the golden tests so the
// standard library is type-checked from source only once.
var sharedLoader *Loader

func loader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(filepath.Join("..", ".."))
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

func fixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := loader(t).LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return pkg
}

// fixtureTree loads every package of one fixture tree: the fixture's own
// package and any below it.
func fixtureTree(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, err := loader(t).LoadTree(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadTree(%s): %v", name, err)
	}
	return pkgs
}

func analyzerByName(t *testing.T, name string) Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name() == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// TestGoldenPositives checks each positive fixture against its analyzer:
// the findings must match the expected substrings one-to-one, in
// position order.
func TestGoldenPositives(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer string
		want     []string // substring of findings[i].Message
		files    []string // base name of findings[i].File; nil means dir+".go" for all
	}{
		{
			dir:      "mbufleak_pos",
			analyzer: "mbufleak",
			want: []string{
				`LeakOnEarlyReturn: mbuf "m"`,
				`LeakBulkAtExit: mbuf "dst"`,
			},
		},
		{
			dir:      "checkederr_pos",
			analyzer: "checkederr",
			want: []string{
				"result of Free",
				"result of AllocBulk",
				"result of FreeBulk",
				"result of Free is dropped (go statement)",
				"result of Reload",
				"result of ResetRegion",
				"result of Serve",
				"result of Close",
				"result of SetAccBatchBytes",
				"result of SetBurst",
				"result of OfflineBoard",
				"result of Evict",
			},
		},
		{
			dir:      "escapecheck_pos",
			analyzer: "escapecheck",
			want: []string{
				"EscapeViaReturn: compiler-proven heap escape inside //dhl:hotpath function: moved to heap: x",
				"EscapeViaGlobal: compiler-proven heap escape inside //dhl:hotpath function: moved to heap: v",
				"EscapeOnBranch: compiler-proven heap escape inside //dhl:hotpath function: moved to heap: a",
				"EscapeOnBranch: compiler-proven heap escape inside //dhl:hotpath function: moved to heap: b",
				"Stamp: call to time.Now on the hot path",
				"Elapsed: call to time.Since on the hot path",
				"Describe: call to fmt.Sprintf on the hot path",
				"Describe: compiler-proven heap escape inside //dhl:hotpath function: x escapes to heap",
				"Trace: call to log.Print on the hot path",
				`Trace: compiler-proven heap escape inside //dhl:hotpath function: "packet" escapes to heap`,
			},
		},
		{
			// The constructs the old syntactic allocation check flagged:
			// escapecheck keeps the denied calls and what the compiler
			// proves escapes, not the literals, make, closure and boxing
			// assignment it keeps on the stack.
			dir:      "hotpathalloc_pos",
			analyzer: "escapecheck",
			want: []string{
				"Describe: call to fmt.Sprintf on the hot path",
				"Describe: compiler-proven heap escape inside //dhl:hotpath function: x escapes to heap",
				"Describe: call to time.Now on the hot path",
				"Box: compiler-proven heap escape inside //dhl:hotpath function: x escapes to heap",
			},
		},
		{
			dir:      "unreferenced_pos",
			analyzer: "unreferenced",
			want: []string{
				"lib.Config.Limit has no non-test write",
				"lib.Config.Burst has no non-test write",
				"lib.Config.Label has no non-test write",
				"lib.Config.Spare has no non-test write",
				"lib.TableConfig.Hash has no non-test write",
				"lib.OnlyTestsCall is not reached",
				"(*lib.Counter).Reset is not reached",
				"(*lib.Counter).ID is not reached",
				"lib.DeadHead is not reached",
				"lib.deadTail is not reached",
			},
			files: []string{"config.go", "config.go", "config.go", "config.go", "config.go", "lib.go", "lib.go", "lib.go", "lib.go", "lib.go"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			got := Run(fixtureTree(t, tc.dir), []Analyzer{analyzerByName(t, tc.analyzer)})
			if len(got) != len(tc.want) {
				for _, f := range got {
					t.Logf("finding: %s", f)
				}
				t.Fatalf("got %d findings, want %d", len(got), len(tc.want))
			}
			for i, f := range got {
				if !strings.Contains(f.Message, tc.want[i]) {
					t.Errorf("finding %d = %q, want substring %q", i, f.Message, tc.want[i])
				}
				if f.Analyzer != tc.analyzer {
					t.Errorf("finding %d attributed to %q, want %q", i, f.Analyzer, tc.analyzer)
				}
				wantFile := tc.dir + ".go"
				if tc.files != nil {
					wantFile = tc.files[i]
				}
				if filepath.Base(f.File) != wantFile {
					t.Errorf("finding %d in %q, want file %s", i, f.File, wantFile)
				}
			}
		})
	}
}

// TestGoldenNegatives runs the FULL analyzer suite over each negative
// fixture; correct code must produce zero findings from any analyzer.
func TestGoldenNegatives(t *testing.T) {
	for _, dir := range []string{
		"mbufleak_neg", "checkederr_neg", "escapecheck_neg", "hotpathalloc_neg",
		"unreferenced_neg",
	} {
		t.Run(dir, func(t *testing.T) {
			got := Run(fixtureTree(t, dir), Analyzers())
			for _, f := range got {
				t.Errorf("unexpected finding: %s", f)
			}
		})
	}
}

// TestAllowDirective proves the negative fixtures' suppression cases are
// real: each analyzer, run raw (no allow filtering), must flag exactly
// the one deliberately-annotated violation that Run() then filters out.
func TestAllowDirective(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer string
		want     string // substring of the one raw finding
	}{
		{"escapecheck_neg", "escapecheck", "AllowedEscape: compiler-proven heap escape"},
		{filepath.Join("unreferenced_neg", "internal", "lib"), "unreferenced", "lib.Oracle is not reached"},
		{filepath.Join("unreferenced_neg", "internal", "knob"), "unreferenced", "knob.Config.Tuned has no non-test write"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg := fixture(t, tc.dir)
			a := analyzerByName(t, tc.analyzer)
			raw := a.Check(pkg)
			if len(raw) != 1 || !strings.Contains(raw[0].Message, tc.want) {
				for _, f := range raw {
					t.Logf("raw finding: %s", f)
				}
				t.Fatalf("raw analyzer found %d finding(s), want exactly 1 matching %q", len(raw), tc.want)
			}
			if got := Run([]*Package{pkg}, []Analyzer{a}); len(got) != 0 {
				t.Fatalf("Run did not suppress the allowed finding: %v", got)
			}
		})
	}
}

// TestPositivesTripFullSuite mirrors the CI gate contract: running every
// analyzer over a positive fixture (as cmd/dhl-lint does) must yield at
// least one finding, i.e. a non-zero exit.
func TestPositivesTripFullSuite(t *testing.T) {
	for _, dir := range []string{
		"mbufleak_pos", "checkederr_pos", "escapecheck_pos", "hotpathalloc_pos",
		"unreferenced_pos",
	} {
		t.Run(dir, func(t *testing.T) {
			if got := Run(fixtureTree(t, dir), Analyzers()); len(got) == 0 {
				t.Fatalf("full suite found nothing in %s; dhl-lint would exit 0", dir)
			}
		})
	}
}

// TestCheckedErrNamesResolve keeps checkederr's name list honest: every
// name must belong to a non-test function or method of the module whose
// last result is an error, or the entry guards nothing.
func TestCheckedErrNamesResolve(t *testing.T) {
	pkgs, err := loader(t).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Defs {
			if f, ok := obj.(*types.Func); ok && lastResultIsError(f) {
				defined[f.Name()] = true
			}
		}
	}
	for name := range apiMethods {
		if !defined[name] {
			t.Errorf("apiMethods lists %s, but no function or method of the module by that name returns an error", name)
		}
	}
}

// TestCheckedErrCoversBackend keeps checkederr in step with the
// management surface: every error-returning ctlplane.Backend method is an
// operation whose dropped error leaves the system other than the caller
// believes, so each must be in apiMethods.
func TestCheckedErrCoversBackend(t *testing.T) {
	errType := reflect.TypeFor[error]()
	b := reflect.TypeFor[ctlplane.Backend]()
	for i := 0; i < b.NumMethod(); i++ {
		m := b.Method(i)
		if n := m.Type.NumOut(); n > 0 && m.Type.Out(n-1) == errType && !apiMethods[m.Name] {
			t.Errorf("ctlplane.Backend.%s returns an error, but apiMethods does not list it", m.Name)
		}
	}
}
