package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/harness"
)

// goldenSections cuts bench_full_output.txt, what `dhl-bench all` prints
// (scripts/golden.sh holds it to that byte for byte), at the titles of the
// experiment table's rows. It fails unless the file starts with the first
// row and has every row's section in table order: `all` is the table, top
// to bottom.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../../bench_full_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	rows := harness.Experiments()
	starts := make([]int, len(rows)+1)
	for i, e := range rows {
		starts[i] = strings.Index(golden, "\n=== "+e.Title+" ===\n")
		switch {
		case starts[i] < 0:
			t.Fatalf("bench_full_output.txt has no section titled %q (row %s)", e.Title, e.Name)
		case i == 0 && starts[i] != 0:
			t.Fatalf("bench_full_output.txt does not start with the first row, %s", e.Name)
		case i > 0 && starts[i] <= starts[i-1]:
			t.Fatalf("bench_full_output.txt has %s before %s; the table has them the other way round", e.Name, rows[i-1].Name)
		}
	}
	starts[len(rows)] = len(golden)
	sections := make(map[string]string, len(rows))
	for i, e := range rows {
		sections[e.Name] = golden[starts[i]:starts[i+1]]
	}
	return sections
}

// TestGoldenSlice runs the two rows that cost milliseconds and holds them
// to their sections of the golden file, so a slice of scripts/golden.sh
// runs inside `go test ./...`. Targets print once each, in table order,
// however they are spelled, ordered or repeated.
func TestGoldenSlice(t *testing.T) {
	sections := goldenSections(t)
	var out bytes.Buffer
	if err := run(&out, []string{"table7", "TABLE6", "table7"}); err != nil {
		t.Fatal(err)
	}
	if want := sections["table6"] + sections["table7"]; out.String() != want {
		t.Errorf("dhl-bench table7 TABLE6 table7 printed\n%s\nbench_full_output.txt has\n%s", out.String(), want)
	}
}

// TestUnknownTarget: a target that is not a row fails before anything
// runs, and the message lists what would have been accepted.
func TestUnknownTarget(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, []string{"table7", "no such row"})
	if err == nil {
		t.Fatal(`dhl-bench table7 "no such row" succeeded`)
	}
	if !strings.Contains(err.Error(), `"no such row"`) {
		t.Errorf("%q does not name the unknown target", err)
	}
	for _, e := range harness.Experiments() {
		if !strings.Contains(err.Error(), e.Name+"|") {
			t.Errorf("%q does not offer %s", err, e.Name)
		}
	}
	if !strings.Contains(err.Error(), "|all)") {
		t.Errorf("%q does not offer all", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before refusing", out.String())
	}
}

// TestUsageInPackageComment holds the usage line quoted in the package
// comment to the one built from the table.
func TestUsageInPackageComment(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "//\t"+usage()+"\n") {
		t.Errorf("main.go's package comment does not quote the usage line %q", usage())
	}
}
