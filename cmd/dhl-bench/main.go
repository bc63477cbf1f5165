// Command dhl-bench regenerates the tables and figures of the DHL paper's
// evaluation section from the simulated testbed and prints them in the
// paper's layout.
//
// Usage:
//
//	dhl-bench [-quick] [table1|fig4|fig6|fig7|table5|table6|table7|ablation|telemetry|flowscale|boardfailover|diurnal|all]
//
// The targets are the rows of internal/harness's experiment table, which
// also owns their order, their titles and what each prints; any number may
// be named. With no argument it runs everything. Full-fidelity windows
// take about a minute of CPU; pass -quick for shorter measurement windows.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/opencloudnext/dhl-go/internal/harness"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dhl-bench:", err)
		os.Exit(1)
	}
}

// usage is the line the package comment quotes.
func usage() string {
	var names []string
	for _, e := range harness.Experiments() {
		names = append(names, e.Name)
	}
	return "dhl-bench [-quick] [" + strings.Join(names, "|") + "|all]"
}

func run(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("dhl-bench", flag.ExitOnError)
	quick := fs.Bool("quick", false, "use short measurement windows")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s\n", usage())
		fs.PrintDefaults()
	}
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning an error
	return harness.Regenerate(stdout, *quick, fs.Args()...)
}
