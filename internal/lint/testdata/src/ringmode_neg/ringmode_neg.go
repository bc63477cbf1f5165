// Package ringmode_neg declares rings whose SyncMode matches their
// goroutine usage; the ringmode analyzer must stay quiet.
package ringmode_neg

import "github.com/opencloudnext/dhl-go/internal/ring"

// spsc has exactly one producer goroutine and one consumer context.
var spsc = ring.MustNew[int]("spsc-ok", 64, ring.SingleProducerConsumer)

func producer() {
	for i := 0; i < 8; i++ {
		spsc.Enqueue(i)
	}
}

// RunPaired spawns the single producer and consumes inline.
func RunPaired() int {
	go producer()
	n := 0
	var buf [1]int
	for spsc.DequeueBurst(buf[:]) == 1 {
		n++
	}
	return n
}

// mpmc is declared for the general mode, so any number of goroutines on
// either side is fine.
var mpmc = ring.MustNew[int]("mpmc-ok", 64, ring.MultiProducerConsumer)

func worker() {
	mpmc.Enqueue(1)
	mpmc.DequeueBurst(make([]int, 1))
}

// RunCrowd spawns several workers onto the MP/MC ring.
func RunCrowd() {
	go worker()
	go worker()
	go worker()
}
