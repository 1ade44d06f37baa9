package sim

import (
	"testing"

	"repro/internal/alloctest"
)

// These tests pin the allocation budget of the simulation hot path at
// zero: once the event pool, wheel lanes and waiter rings have grown
// to a workload's high-water mark, scheduling, firing, transferring
// and credit-waiting must not touch the heap again. A regression here
// is a GC-pressure regression for every experiment in the repo.

func TestEngineScheduleAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}

	// Warm the pool, the cur/far heaps, and every wheel lane the loop
	// below will touch.
	for i := 0; i < 256; i++ {
		e.After(Time(i)*Microsecond, fn)
	}
	e.After(Time(wheelSlots<<spanBits)*4, fn) // far heap
	e.Run()

	if n := alloctest.Mallocs(1000, func() {
		e.After(0, fn)                            // current tick
		e.After(3*Microsecond, fn)                // wheel lane
		e.After(Time(wheelSlots<<spanBits)*4, fn) // far heap
		e.Run()
	}); n != 0 {
		t.Fatalf("1000 schedule/fire cycles allocate %d objects, want 0", n)
	}
}

// TestEngineZeroDelayChainBounded: events that reschedule themselves at
// their own instant never let the drain run empty. Consumed from the
// front, the run would grow by one entry per firing, forever; it must
// reuse its storage instead.
func TestEngineZeroDelayChainBounded(t *testing.T) {
	e := NewEngine()
	var fn func()
	fn = func() { e.After(0, fn) }
	for i := 0; i < 3; i++ {
		e.After(0, fn)
	}
	e.Step() // the first firing sizes the run
	if n := alloctest.Mallocs(100000, func() { e.Step() }); n != 0 {
		t.Fatalf("100000 zero-delay firings allocate %d objects, want 0", n)
	}
	if e.Now() != 0 || e.pending != 3 {
		t.Fatalf("now %v, pending %d; want 0 and 3", e.Now(), e.pending)
	}
	if c := cap(e.run); c > 16 {
		t.Fatalf("run grew to %d entries for 3 pending events", c)
	}
}

func TestPipeTransferAllocFree(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, "link", 1<<30, 2*Microsecond)
	fn := func() {}
	p.Transfer(4096, fn)
	e.Run()

	if n := alloctest.Mallocs(1000, func() {
		p.Transfer(4096, fn)
		e.Run()
	}); n != 0 {
		t.Fatalf("1000 Pipe.Transfers allocate %d objects, want 0", n)
	}
}
