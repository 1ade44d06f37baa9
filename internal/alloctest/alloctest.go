// Package alloctest counts what a test's hot path allocates. It
// imports nothing from the module, so the tests of every package,
// internal ones included, can pin their allocations with it.
package alloctest

import (
	"math"
	"runtime"
)

// Mallocs runs f runs times and returns the heap allocations the runs
// made, all of them: a count over one runtime.ReadMemStats window, not
// an average, which truncates to an integer and so hides an allocation
// made once every few runs. f is not called before the window, so a
// test warms what f grows first. A collection runs before the window,
// so the collector's one-time setup in a process (its mark workers, 5
// allocations at the first collection) never counts as the code's. The
// window runs on one P: with more, the runtime may start an OS thread
// when ReadMemStats restarts the world, and that thread's records would
// count as the code's. Under the race detector, whose runtime now and
// then makes a 16 B allocation of its own inside such a window when the
// machine is loaded, the count is the least of three windows.
//
//simlint:allow unused (test-support package: the exact allocation count every allocation pin takes)
func Mallocs(runs int, f func()) uint64 {
	runtime.GC()
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
