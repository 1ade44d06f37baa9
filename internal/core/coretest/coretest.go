// Package coretest builds clusters for the tests of the packages above
// core and counts what their hot paths allocate.
package coretest

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
)

// NewCluster is core.NewCluster for a test: the cluster runs under the
// image guard (nand.Reliability.GuardImages), so an operation that
// finds a stored page image written to panics there, and when the test
// ends the cluster's drain check runs (core.Cluster.Check): no event
// pending, every image still stored verified once more, and every check
// a layer registered — its pools, its page log. A benchmark gets the
// cluster without the guard.
//
//simlint:allow unused (test-support package: the cluster every package test builds under the image guard)
func NewCluster(t testing.TB, p core.Params) *core.Cluster {
	t.Helper()
	_, p.Reliability.GuardImages = t.(*testing.T)
	c, err := core.NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Check(); err != nil {
			t.Error(err)
		}
	})
	return c
}

// Mallocs runs f runs times and returns the heap allocations the runs
// made, all of them: a count over one runtime.ReadMemStats window, not
// testing.AllocsPerRun's average, which truncates to an integer and so
// hides an allocation made once every few runs. The window runs on one
// P, as AllocsPerRun does: with more, the runtime may start an OS
// thread when ReadMemStats restarts the world, and that thread's
// records would count as the code's. Under the race detector, whose
// runtime now and then makes a 16 B allocation of its own inside such
// a window when the machine is loaded, the count is the least of three
// windows.
//
//simlint:allow unused (test-support package: the exact allocation count every allocation pin above core takes)
func Mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	windows := 1
	if raceDetector {
		windows = 3
	}
	least := uint64(math.MaxUint64)
	for range windows {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		least = min(least, m1.Mallocs-m0.Mallocs)
	}
	return least
}
