package eventsim

import "testing"

// BenchmarkEventLoop measures raw simulator event throughput, the wall-
// clock cost driver of every experiment.
func BenchmarkEventLoop(b *testing.B) {
	s := New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(Nanosecond, tick)
		}
	}
	b.ResetTimer()
	s.After(0, tick)
	s.RunAll()
}

// BenchmarkQuietStep measures a 1 us Run step with nothing due, the step a
// Table II caller takes while a burst is out: two declared loops on empty
// inputs, as a runtime's transfer cores.
func BenchmarkQuietStep(b *testing.B) {
	s := New()
	for i := 0; i < 2; i++ {
		loop := NewPollLoop(s, NewCore(s, i, 0, 2.1e9), 60, func() (float64, func()) { return 0, nil })
		loop.Watch(nothing{})
		loop.Start()
	}
	s.Run(Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + Microsecond)
	}
}

// BenchmarkPollLoop measures the poll-loop actor overhead.
func BenchmarkPollLoop(b *testing.B) {
	s := New()
	c := NewCore(s, 0, 0, 2.1e9)
	n := 0
	var loop *PollLoop
	loop = NewPollLoop(s, c, 60, func() (float64, func()) {
		n++
		if n >= b.N {
			loop.Stop()
		}
		return 100, nil
	})
	b.ResetTimer()
	loop.Start()
	s.RunAll()
}

// BenchmarkPollLoopBesideBurst is BenchmarkPollLoop with 32 events pending
// on the heap the whole time, as a generator's burst sits in flight beside
// the cores that poll for it.
func BenchmarkPollLoopBesideBurst(b *testing.B) {
	s := New()
	for i := 0; i < 32; i++ {
		s.At(never/2+Time(i)*Nanosecond, func() {})
	}
	c := NewCore(s, 0, 0, 2.1e9)
	n := 0
	var loop *PollLoop
	loop = NewPollLoop(s, c, 60, func() (float64, func()) {
		n++
		if n >= b.N {
			loop.Stop()
		}
		return 100, nil
	})
	b.ResetTimer()
	loop.Start()
	s.RunAll()
}
