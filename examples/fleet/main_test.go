package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputGolden: the example is seeded and deterministic, so its whole
// output is pinned (recorded before the harness's three paced drivers
// became one). Regenerate with: go run ./examples/fleet > examples/fleet/testdata/output.golden
func TestOutputGolden(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = run()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/output.golden:\n%s", got)
	}
}
