package lib

import "testing"

// A test's call does not make code live, nor a test's write a knob.
func TestOnlyReaders(t *testing.T) {
	c := NewCounter()
	c.Reset()
	if OnlyTestsCall() != 2 {
		t.Fatal("OnlyTestsCall")
	}
	if Gauge(Config{Scale: 1, Label: "ab"}) != 12 {
		t.Fatal("Gauge")
	}
}
