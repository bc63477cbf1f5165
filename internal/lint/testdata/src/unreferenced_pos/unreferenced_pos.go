// Package unreferenced_pos is the root of a fixture tree: it stands for
// a command outside internal/, and what it reaches in internal/lib is
// live. Everything else there is a finding.
package unreferenced_pos

import "github.com/opencloudnext/dhl-go/internal/lint/testdata/src/unreferenced_pos/internal/lib"

// Run is what the tree's one root does.
func Run() int {
	c := lib.NewCounter()
	c.Inc()
	return lib.Live() + c.N + lib.Gauge(lib.Config{Scale: 2}) +
		lib.TableSize(lib.TableConfig[string]{Size: 4})
}
