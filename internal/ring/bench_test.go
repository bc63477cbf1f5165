package ring

import "testing"

// BenchmarkSPSCBurst measures the OBQ fast path: single-producer
// single-consumer burst transfer of 32 pointers.
func BenchmarkSPSCBurst(b *testing.B) {
	r := MustNew[int]("bench", 1024, SingleProducerConsumer)
	in := make([]int, 32)
	out := make([]int, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.EnqueueBurst(in)
		r.DequeueBurst(out)
	}
}

// BenchmarkMPSCBurst measures the shared-IBQ path (multi-producer,
// single-consumer) without contention.
func BenchmarkMPSCBurst(b *testing.B) {
	r := MustNew[int]("bench", 1024, SingleConsumer)
	in := make([]int, 32)
	out := make([]int, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.EnqueueBurst(in)
		r.DequeueBurst(out)
	}
}

// BenchmarkSingleEnqueueDequeue measures one element at a time: Enqueue,
// then a DequeueBurst of one.
func BenchmarkSingleEnqueueDequeue(b *testing.B) {
	r := MustNew[int]("bench", 1024, SingleProducerConsumer)
	var one [1]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Enqueue(i)
		r.DequeueBurst(one[:])
	}
}
