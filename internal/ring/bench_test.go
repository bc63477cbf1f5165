package ring

import "testing"

// BenchmarkSPSCBurst measures a burst of 32 in and then out, the one path
// every ring takes: the shared IBQ and the OBQs alike.
func BenchmarkSPSCBurst(b *testing.B) {
	r := MustNew[int]("bench", 1024)
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
	r := MustNew[int]("bench", 1024)
	var one [1]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Enqueue(i)
		r.DequeueBurst(one[:])
	}
}
