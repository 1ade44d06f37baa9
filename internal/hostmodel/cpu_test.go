package hostmodel

import (
	"testing"

	"repro/internal/sim"
)

func TestThreadSerialExecution(t *testing.T) {
	eng := sim.NewEngine()
	cpu, err := New(eng, "h", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	th := cpu.NewThread()
	var times []sim.Time
	for i := 0; i < 3; i++ {
		th.Do(10*sim.Microsecond, func() { times = append(times, eng.Now()) })
	}
	eng.Run()
	want := []sim.Time{10 * sim.Microsecond, 20 * sim.Microsecond, 30 * sim.Microsecond}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("serial times %v, want %v", times, want)
		}
	}
}

func TestThreadsParallelUpToCores(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := New(eng, "h", Config{Cores: 4, DRAMBytesPerSec: 1e9})
	done := 0
	for i := 0; i < 4; i++ {
		cpu.NewThread().Do(100*sim.Microsecond, func() { done++ })
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if eng.Now() != 100*sim.Microsecond {
		t.Fatalf("4 threads on 4 cores took %v, want 100us", eng.Now())
	}
}

func TestOversubscriptionStretches(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := New(eng, "h", Config{Cores: 2, DRAMBytesPerSec: 1e9})
	done := 0
	for i := 0; i < 4; i++ {
		cpu.NewThread().Do(100*sim.Microsecond, func() { done++ })
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	// 4 runnable on 2 cores: each op stretches 2x.
	if eng.Now() != 200*sim.Microsecond {
		t.Fatalf("oversubscribed run took %v, want 200us", eng.Now())
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := New(eng, "h", Config{Cores: 10, DRAMBytesPerSec: 1e9})
	// One thread busy 50us of a 100us window on 10 cores = 5%.
	th := cpu.NewThread()
	th.Do(50*sim.Microsecond, func() {})
	eng.Run()
	eng.RunUntil(100 * sim.Microsecond)
	u := cpu.Utilization()
	if u < 0.049 || u > 0.051 {
		t.Fatalf("utilization = %f, want 0.05", u)
	}
}

func TestDRAMBandwidthShared(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := New(eng, "h", Config{Cores: 4, DRAMBytesPerSec: 1_000_000_000})
	var finished []sim.Time
	for i := 0; i < 4; i++ {
		cpu.ReadDRAM(1_000_000, func() { finished = append(finished, eng.Now()) })
	}
	eng.Run()
	// 4 MB total at 1 GB/s = 4 ms for the last one.
	last := finished[len(finished)-1]
	if last < 4*sim.Millisecond {
		t.Fatalf("DRAM not bandwidth-limited: last finish %v", last)
	}
}

func TestInvalidConfig(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, "h", Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestStatsSnapshotAndDelta(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := New(eng, "h", Config{Cores: 4, DRAMBytesPerSec: 1_000_000_000})
	cpu.ReadDRAM(1_000_000, nil)
	cpu.NewThread().Do(50*sim.Microsecond, func() {})
	eng.Run()
	base := cpu.Stats()
	if base.DRAMBytesMoved != 1_000_000 || base.DRAMTransfers != 1 {
		t.Fatalf("base stats %+v", base)
	}
	if base.DRAMUtilization <= 0 || base.CPUUtilization <= 0 || base.CoreBusyMs <= 0 {
		t.Fatalf("utilization gauges not populated: %+v", base)
	}
	cpu.ReadDRAM(500_000, nil)
	cpu.ReadDRAM(500_000, nil)
	eng.Run()
	d := cpu.Stats().Delta(base)
	if d.DRAMBytesMoved != 1_000_000 || d.DRAMTransfers != 2 {
		t.Fatalf("delta %+v, want 1 MB over 2 transfers", d)
	}
	if d.CoreBusyMs != 0 {
		t.Fatalf("delta core-busy %v, want 0 (no compute in window)", d.CoreBusyMs)
	}
}

func TestStatsZeroTimeIsFinite(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := New(eng, "h", DefaultConfig())
	s := cpu.Stats()
	// At time zero every gauge must come back as a finite number, not
	// NaN from a 0/0.
	if s.DRAMUtilization != 0 || s.CPUUtilization != 0 || s.CoreBusyMs != 0 {
		t.Fatalf("zero-time stats %+v", s)
	}
	d := s.Delta(s)
	if d != (Stats{}) {
		t.Fatalf("self-delta %+v, want zero", d)
	}
}

// TestNewThreadsSizesTheWorkerPool: n independent threads, and one when
// the caller asks for none — the clamp every thread sweep used to carry.
func TestNewThreadsSizesTheWorkerPool(t *testing.T) {
	eng := sim.NewEngine()
	cpu, err := New(eng, "h", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-2, 0} {
		if got := len(cpu.NewThreads(n)); got != 1 {
			t.Fatalf("NewThreads(%d) made %d threads, want 1", n, got)
		}
	}
	ths := cpu.NewThreads(4)
	if len(ths) != 4 {
		t.Fatalf("NewThreads(4) made %d threads", len(ths))
	}
	done := 0
	for _, th := range ths {
		th.Do(10*sim.Microsecond, func() { done++ })
	}
	eng.Run()
	if done != 4 || eng.Now() != 10*sim.Microsecond {
		t.Fatalf("%d of 4 items done at %v: the threads did not run side by side", done, eng.Now())
	}
}
