//go:build race

package ring

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// raceChildEnv marks the child run of TestSecondGoroutineIsADataRace.
const raceChildEnv = "RING_RACE_CHILD"

// TestSecondGoroutineIsADataRace holds the ring to its one-owner rule: a
// ring touched from a second goroutine, with nothing ordering the two, is
// a data race the race detector reports. The race is provoked in a child
// run of this test binary, since a reported race fails the test it
// happens in; the parent asserts that the child failed and said why.
func TestSecondGoroutineIsADataRace(t *testing.T) {
	if os.Getenv(raceChildEnv) != "" {
		touchFromTwoGoroutines()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSecondGoroutineIsADataRace$", "-test.count=1")
	cmd.Env = append(os.Environ(), raceChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child run exited 0; a ring used from two goroutines went unreported:\n%s", out)
	}
	if !bytes.Contains(out, []byte("WARNING: DATA RACE")) {
		t.Fatalf("child run failed (%v) without reporting a data race:\n%s", err, out)
	}
}

// touchFromTwoGoroutines is the single-producer/single-consumer split the
// rings once allowed: this goroutine enqueues while a second one dequeues.
// The only edges between them are the go statement and the final wait.
func touchFromTwoGoroutines() {
	r := MustNew[int]("raced", 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf [8]int
		for range 100 {
			r.DequeueBurst(buf[:])
		}
	}()
	for i := range 100 {
		r.Enqueue(i)
	}
	<-done
}
