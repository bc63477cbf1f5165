// Package hotpathalloc_pos annotates functions with every construct the
// old syntactic hot-path allocation check forbade. escapecheck now owns
// that rule: it flags the denied calls and what the compiler proves
// escapes, and stays quiet about what the compiler keeps on the stack.
package hotpathalloc_pos

import (
	"fmt"
	"time"
)

// Describe is annotated hot-path yet formats, reads the wall clock,
// builds map/slice literals, makes a slice, captures a closure, and boxes
// into an interface.
//
//dhl:hotpath
func Describe(x int) string {
	s := fmt.Sprintf("x=%d", x) // denied call + boxed argument
	_ = time.Now()              // denied call
	counts := map[int]int{}     // map literal
	ids := []int{x}             // slice literal
	scratch := make([]byte, 16) // make of a slice
	inc := func() { x++ }       // capturing closure
	inc()
	var v interface{}
	v = x // boxing assignment
	_ = v
	_ = counts
	_ = ids
	_ = scratch
	return s
}

// Box is annotated hot-path and boxes its result into an interface.
//
//dhl:hotpath
func Box(x int) interface{} {
	return x // boxing return
}
