// Package ringmode_pos declares rings whose SyncMode contradicts how
// they are used across goroutines; the ringmode analyzer must flag both.
package ringmode_pos

import "github.com/opencloudnext/dhl-go/internal/ring"

// spsc is declared single-producer/single-consumer but fed from two
// concurrently spawned producers below.
var spsc = ring.MustNew[int]("spsc", 64, ring.SingleProducerConsumer)

func producerA() { spsc.Enqueue(1) }

func producerB() { spsc.Enqueue(2) }

// RunMisdeclaredProducers spawns two producer goroutines onto the SPSC
// ring: an enqueue-side data race under the declared mode.
func RunMisdeclaredProducers() int {
	go producerA()
	go producerB()
	n := 0
	var buf [1]int
	for spsc.DequeueBurst(buf[:]) == 1 {
		n++
	}
	return n
}

// sc is declared single-consumer but drained from two goroutines.
var sc = ring.MustNew[string]("sc", 64, ring.SingleConsumer)

func consumerA() { sc.DequeueBurst(make([]string, 1)) }

func consumerB() { sc.DequeueBurst(make([]string, 1)) }

// RunMisdeclaredConsumers spawns two consumer goroutines onto the MP/SC
// ring: a dequeue-side data race under the declared mode.
func RunMisdeclaredConsumers() {
	sc.Enqueue("x")
	go consumerA()
	go consumerB()
}
