package lib

import "testing"

// A test's call does not make code live.
func TestOnlyReaders(t *testing.T) {
	c := NewCounter()
	c.Reset()
	if OnlyTestsCall() != 2 {
		t.Fatal("OnlyTestsCall")
	}
}
