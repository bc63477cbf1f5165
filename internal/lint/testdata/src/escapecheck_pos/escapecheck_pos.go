// Package escapecheck_pos holds hot-path functions whose heap escapes
// are invisible to syntax (no literals, no boxing) but proven by the
// compiler's escape analysis, and hot-path calls the analyzer denies
// whether or not they allocate.
package escapecheck_pos

import (
	"fmt"
	"log"
	"time"
)

// Sink keeps the compiler from optimizing the escapes away.
var Sink *int

// EscapeViaReturn returns the address of a local: the compiler moves x
// to the heap.
//
//dhl:hotpath
func EscapeViaReturn() *int {
	x := 42
	return &x
}

// EscapeViaGlobal parks a parameter's address in a global: v moves to
// the heap.
//
//dhl:hotpath
func EscapeViaGlobal(v int) {
	Sink = &v
}

// EscapeOnBranch is the multi-path case: both the branch's early return
// and the fall-through return leak an address.
//
//dhl:hotpath
func EscapeOnBranch(c bool) *int {
	a := 1
	if c {
		return &a
	}
	b := 2
	return &b
}

// Stamp reads the wall clock: nothing escapes, but time.Now syscalls.
//
//dhl:hotpath
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Elapsed measures with the wall clock instead of the simulation's.
//
//dhl:hotpath
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0)
}

// Describe formats: fmt.Sprintf, and the compiler boxes x for it.
//
//dhl:hotpath
func Describe(x int) string {
	return fmt.Sprintf("x=%d", x)
}

// Trace logs from the data path.
//
//dhl:hotpath
func Trace() {
	log.Print("packet")
}
