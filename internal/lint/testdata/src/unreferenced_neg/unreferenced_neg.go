// Package unreferenced_neg is the root of a fixture tree whose internal
// packages are live in every way the unreferenced analyzer recognises.
package unreferenced_neg

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/lint/testdata/src/unreferenced_neg/internal/knob"
	"github.com/opencloudnext/dhl-go/internal/lint/testdata/src/unreferenced_neg/internal/lib"
)

// Run calls into lib directly, through an interface and through fmt.
func Run() string {
	var s lib.Shape = lib.NewSquare(2)
	var id lib.Identified = lib.NewSquare(3)
	var lvl lib.Level
	return fmt.Sprint(lib.Called(), s.Area(), id.ID(), lvl)
}

// Tune sets every knob of package knob.
func Tune() int {
	cfg := knob.Config{Keyed: 1, Defaulted: 2}
	cfg.Assigned = 2
	cfg.Bumped++
	p := &cfg.Pointed
	*p = 3
	table := knob.TableConfig[string]{Size: 4, First: "a"}
	table.Last = "z"
	if table.Size == 0 {
		cfg.Crossed = 5
	}
	return knob.Use(cfg) + knob.Sum(knob.PairConfig{1, 2}) + knob.Size(table)
}
