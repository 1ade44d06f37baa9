package sim_test

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
)

// The token pool's pins count every allocation of their window exactly
// (alloctest.Mallocs).

func TestTokenPoolAcquireAllocFree(t *testing.T) {
	tp := sim.NewTokenPool("credits", 4)
	fn := func() {}

	// Warm the waiter ring past the depth the steady-state loop uses.
	for i := 0; i < 8; i++ {
		tp.Acquire(fn)
	}
	for i := 0; i < 8; i++ {
		tp.Release() // serve the queued waiters, then refill the pool
	}

	if n := alloctest.Mallocs(1000, func() {
		for i := 0; i < 6; i++ {
			tp.Acquire(fn) // four grants, two queued
		}
		for i := 0; i < 6; i++ {
			tp.Release() // serve both, then refill
		}
	}); n != 0 {
		t.Fatalf("1000 TokenPool cycles allocate %d objects, want 0", n)
	}
}

// TestTokenPoolHandOffAllocFree pins a Release that hands its token to
// a queued waiter whose grant releases at once, the hand-off loop an
// acceleration unit's short claim runs through.
func TestTokenPoolHandOffAllocFree(t *testing.T) {
	tp := sim.NewTokenPool("units", 1)
	hold := func() {}
	atOnce := func() { tp.Release() }
	cycle := func() {
		tp.Acquire(hold)   // granted: the pool is empty
		tp.Acquire(atOnce) // queued behind it
		tp.Release()       // handed to atOnce, whose release refills the pool
	}
	cycle()
	if n := alloctest.Mallocs(1000, cycle); n != 0 {
		t.Fatalf("1000 hand-offs allocate %d objects, want 0", n)
	}
	if err := tp.Drained(); err != nil {
		t.Fatal(err)
	}
}
