// Package examples holds the runnable examples, one directory each, and
// the one test that pins what they print.
package examples

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestOutputGolden runs every example with its default flags and holds its
// standard output to <name>/testdata/output.golden byte for byte: the
// simulator is deterministic and the examples are seeded, so what one
// prints is a function of the code. What is not (a bound listener address)
// an example writes to standard error, which is logged, not compared.
// The slowest row, nids, takes about a second, so none skips under -short.
//
// Regenerate one with: go run ./examples/<name> > examples/<name>/testdata/output.golden
func TestOutputGolden(t *testing.T) {
	for _, name := range []string{
		"quickstart", "nids", "reconfig", "custom-module", "service-chain", "failover", "fleet",
	} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join(name, "testdata", "output.golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./"+name)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err = cmd.Run()
			if stderr.Len() > 0 {
				t.Logf("stderr:\n%s", stderr.Bytes())
			}
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v", name, err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output differs from %s/testdata/output.golden:\n%s", name, stdout.Bytes())
			}
		})
	}
}
