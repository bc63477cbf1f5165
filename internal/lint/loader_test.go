package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loaderFor builds a fresh Loader rooted at the real module; error-path
// tests get their own instance so poisoned cache entries cannot leak into
// the golden tests' shared loader.
func loaderFor(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// TestNewLoaderNoGoMod rejects a root without a module declaration.
func TestNewLoaderNoGoMod(t *testing.T) {
	if _, err := NewLoader(t.TempDir()); err == nil {
		t.Fatal("NewLoader on a go.mod-less dir succeeded, want error")
	}
}

// TestNewLoaderBadGoMod rejects a go.mod with no module line.
func TestNewLoaderBadGoMod(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("go 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewLoader(dir)
	if err == nil || !strings.Contains(err.Error(), "no module declaration") {
		t.Fatalf("err = %v, want no-module-declaration error", err)
	}
}

// TestLoadDirMissing surfaces a readable error for a package directory
// that does not exist.
func TestLoadDirMissing(t *testing.T) {
	l := loaderFor(t)
	if _, err := l.LoadDir(filepath.Join("testdata", "src", "no_such_pkg")); err == nil {
		t.Fatal("LoadDir on a missing directory succeeded, want error")
	}
}

// TestLoadDirOutsideModule rejects directories outside the module tree
// instead of inventing an import path for them.
func TestLoadDirOutsideModule(t *testing.T) {
	l := loaderFor(t)
	_, err := l.LoadDir(t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "outside module root") {
		t.Fatalf("err = %v, want outside-module-root error", err)
	}
}

// TestLoadDirNoGoFiles surfaces an empty package (directory with no
// buildable Go files) as an error rather than a nil Package.
func TestLoadDirNoGoFiles(t *testing.T) {
	dir := filepath.Join(loaderFor(t).Root, "internal", "lint", "testdata", "empty_pkg")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	l := loaderFor(t)
	_, err := l.LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), "no buildable Go files") {
		t.Fatalf("err = %v, want no-buildable-Go-files error", err)
	}
}

// TestLoadDirTypeError propagates type-check failures with the package
// identified: analyzers must never see a half-checked package.
func TestLoadDirTypeError(t *testing.T) {
	l := loaderFor(t)
	_, err := l.LoadDir(filepath.Join("testdata", "src", "badtypes"))
	if err == nil || !strings.Contains(err.Error(), "type-checking") ||
		!strings.Contains(err.Error(), "badtypes") {
		t.Fatalf("err = %v, want type-checking error naming badtypes", err)
	}
}

// TestLoadDirBadImport fails cleanly on an import that is neither
// standard library nor module-internal (the vendored-dependency shape the
// offline loader cannot resolve).
func TestLoadDirBadImport(t *testing.T) {
	l := loaderFor(t)
	_, err := l.LoadDir(filepath.Join("testdata", "src", "badimport"))
	if err == nil || !strings.Contains(err.Error(), "example.com/vendored/dep") {
		t.Fatalf("err = %v, want unresolvable-import error naming the path", err)
	}
}

// TestLoadDirMemoized returns the identical *Package for repeated loads
// of one directory, so module-wide analyzers can compare packages by
// pointer.
func TestLoadDirMemoized(t *testing.T) {
	l := loaderFor(t)
	a, err := l.LoadDir(filepath.Join("testdata", "src", "mbufleak_neg"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.LoadDir(filepath.Join("testdata", "src", "mbufleak_neg"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("LoadDir is not memoized: two loads returned distinct packages")
	}
}

// TestLoadDirBuildConstraints type-checks only the files the go tool would
// build on this platform: swcrypto's SHA-NI kernel and its portable stub
// declare the same names under opposite constraints.
func TestLoadDirBuildConstraints(t *testing.T) {
	l := loaderFor(t)
	pkg, err := l.LoadDir(filepath.Join(l.Root, "internal", "swcrypto"))
	if err != nil {
		t.Fatal(err)
	}
	var kernels []string
	for _, f := range pkg.Files {
		if name := filepath.Base(pkg.Position(f.Package).Filename); strings.HasPrefix(name, "sha1block_") {
			kernels = append(kernels, name)
		}
	}
	if len(kernels) != 1 {
		t.Fatalf("loaded %v, want exactly one of the sha1block_ files", kernels)
	}
}

// TestLoadAllSkipsFixtures keeps testdata (deliberately-broken fixtures
// included) out of whole-module analysis.
func TestLoadAllSkipsFixtures(t *testing.T) {
	l := loaderFor(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadAll found no packages")
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.ImportPath, "testdata") {
			t.Errorf("LoadAll included fixture package %s", pkg.ImportPath)
		}
	}
}
