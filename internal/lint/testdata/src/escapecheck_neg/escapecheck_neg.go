// Package escapecheck_neg holds hot-path code the escapecheck analyzer
// must accept: address-taking the compiler proves stack-bound, and one
// documented suppression.
package escapecheck_neg

// Sink observes computed values without keeping addresses.
var Sink int

// StackAddress takes a local's address but the pointer never outlives
// the frame, so escape analysis keeps x on the stack.
//
//dhl:hotpath
func StackAddress() int {
	x := 5
	p := &x
	*p++
	return *p
}

// StackStruct threads a struct pointer through a helper call the
// compiler inlines and proves non-escaping.
//
//dhl:hotpath
func StackStruct(n int) int {
	type pair struct{ a, b int }
	pr := pair{a: n, b: 2 * n}
	q := &pr
	return q.a + q.b
}

// StackBound builds a map literal, a slice literal and a fixed-size
// make, runs a closure that captures a local, and boxes an int into an
// interface. Each looks like an allocation, but none outlives the frame,
// so escape analysis keeps all five on the stack: the compiler, not the
// syntax, decides what allocates.
//
//dhl:hotpath
func StackBound(x int) int {
	counts := map[int]int{x: 1}
	ids := []int{x, x}
	scratch := make([]byte, 16)
	inc := func() { x++ }
	inc()
	var v interface{} = x
	n, _ := v.(int)
	return counts[x] + len(ids) + len(scratch) + n
}

// AllowedEscape is the suppression case: the escape is real, but the
// function only runs on the arm-once configuration path and the
// directive documents that.
//
//dhl:hotpath
func AllowedEscape() *int {
	x := 99 //dhl:allow escapecheck arm-once config path, measured off the steady state
	return &x
}
