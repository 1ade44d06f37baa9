package sim

import "testing"

// BenchmarkEngineAfterStep measures the raw schedule+fire cycle: one
// pooled event through a wheel lane per iteration.
func BenchmarkEngineAfterStep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(3*Microsecond, fn)
		e.Step()
	}
}

// BenchmarkEngineMixedHorizon stresses the full geometry: same-tick,
// wheel-lane and far-heap events interleaved, as a real stack
// produces them.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	far := Time(wheelSlots<<spanBits) * 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(0, fn)
		e.After(Time(i%200)*Microsecond, fn)
		e.After(far, fn)
		e.Run()
	}
}

// BenchmarkEngineDenseTick gives the engine the shape of a 16-node
// ring, whose hops fire as separate events: 300 events pending inside
// 4.5 us, 15 ns apart, every fourth at the same instant as the one
// before it. Each firing reschedules itself one period out, so the
// density holds; one op is one fire and one schedule.
func BenchmarkEngineDenseTick(b *testing.B) {
	const n, gap = 300, 15
	e := NewEngine()
	var fn func()
	fn = func() { e.After(n*gap, fn) }
	for i := 0; i < n; i++ {
		e.At(Time(i-i%4/3)*gap, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkPipeTransfer measures a serialized transfer with delivery
// callback through the pooled engine.
func BenchmarkPipeTransfer(b *testing.B) {
	e := NewEngine()
	p := NewPipe(e, "link", 1<<30, 2*Microsecond)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transfer(4096, fn)
		e.Run()
	}
}

// BenchmarkTokenPoolBlocked measures the acquire→block→release→serve
// cycle on the waiter ring.
func BenchmarkTokenPoolBlocked(b *testing.B) {
	tp := NewTokenPool("credits", 1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Acquire(fn)
		tp.Acquire(fn)
		tp.Release()
		tp.Release()
	}
}
