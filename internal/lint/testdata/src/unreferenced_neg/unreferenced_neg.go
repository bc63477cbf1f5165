// Package unreferenced_neg is the root of a fixture tree whose internal
// package is live in every way the unreferenced analyzer recognises.
package unreferenced_neg

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/lint/testdata/src/unreferenced_neg/internal/lib"
)

// Run calls into lib directly, through an interface and through fmt.
func Run() string {
	var s lib.Shape = lib.NewSquare(2)
	var lvl lib.Level
	return fmt.Sprint(lib.Called(), s.Area(), lvl)
}
