// Package lib holds code no root reaches: a function and a method only
// its test calls, and a dead chain in which only the head is unreferenced
// yet both links are findings.
package lib

// Live is called from the root package.
func Live() int { return 1 }

// OnlyTestsCall is exported, but only lib_test.go calls it.
func OnlyTestsCall() int { return 2 }

// Counter is reached through NewCounter.
type Counter struct{ N int }

// NewCounter is called from the root package.
func NewCounter() *Counter { return &Counter{} }

// Inc is called from the root package.
func (c *Counter) Inc() { c.N++ }

// Reset is a method only lib_test.go calls.
func (c *Counter) Reset() { c.N = 0 }

// DeadHead has no caller at all.
func DeadHead() int { return deadTail() + 1 }

// deadTail is called only by DeadHead, so it is as dead as its caller.
func deadTail() int { return 3 }
