//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time (user + system, all threads) this process
// has consumed. Host cost is measured on this clock, not the wall
// clock: the driver steps the engine on one goroutine and never waits,
// so on an idle machine the two agree to within the GC's helper
// threads — but on the virtual machine the benchmark was defined on,
// the hypervisor at times gave half the wall clock to other guests,
// and that stolen time is not this program's cost.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
