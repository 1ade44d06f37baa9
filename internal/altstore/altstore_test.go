package altstore

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestSSDSequentialApproaches600(t *testing.T) {
	eng := sim.NewEngine()
	ssd, err := NewSSD(eng, "m2", DefaultSSD())
	if err != nil {
		t.Fatal(err)
	}
	const pages = 2000
	done := 0
	for i := 0; i < pages; i++ {
		ssd.Read(8192, true, func(err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			done++
		})
	}
	eng.Run()
	if done != pages {
		t.Fatalf("done = %d", done)
	}
	bw := float64(pages*8192) / eng.Now().Seconds()
	if bw < 450e6 || bw > 600e6 {
		t.Fatalf("sequential SSD bandwidth %.0f MB/s, want ~500-600", bw/1e6)
	}
}

func TestSSDRandomMuchSlower(t *testing.T) {
	run := func(seq bool) float64 {
		eng := sim.NewEngine()
		ssd, _ := NewSSD(eng, "m2", DefaultSSD())
		const pages = 1000
		for i := 0; i < pages; i++ {
			ssd.Read(8192, seq, func(error) {})
		}
		eng.Run()
		return float64(pages*8192) / eng.Now().Seconds()
	}
	seqBW, rndBW := run(true), run(false)
	if rndBW >= seqBW/1.5 {
		t.Fatalf("random (%.0f MB/s) should be well below sequential (%.0f MB/s)",
			rndBW/1e6, seqBW/1e6)
	}
	// Paper Fig 18: random 8KB well under the 600 MB/s envelope.
	if rndBW > 400e6 {
		t.Fatalf("random SSD bandwidth %.0f MB/s implausibly high", rndBW/1e6)
	}
}

func TestHDDSeekDominatedRandom(t *testing.T) {
	eng := sim.NewEngine()
	hdd, err := NewHDD(eng, "disk", DefaultHDD())
	if err != nil {
		t.Fatal(err)
	}
	const ios = 100
	done := 0
	for i := 0; i < ios; i++ {
		hdd.Read(8192, false, func(error) { done++ })
	}
	eng.Run()
	iops := float64(ios) / eng.Now().Seconds()
	if iops > 130 {
		t.Fatalf("random HDD IOPS %.0f, want seek-bound (~120)", iops)
	}
}

func TestHDDSequentialStream(t *testing.T) {
	eng := sim.NewEngine()
	hdd, _ := NewHDD(eng, "disk", DefaultHDD())
	const pages = 1000
	for i := 0; i < pages; i++ {
		hdd.Read(8192, true, func(error) {})
	}
	eng.Run()
	bw := float64(pages*8192) / eng.Now().Seconds()
	if bw < 140e6 || bw > 150e6 {
		t.Fatalf("sequential HDD %.0f MB/s, want ~147", bw/1e6)
	}
}

func TestInvalidConfigs(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewSSD(eng, "x", SSDConfig{}); err == nil {
		t.Fatal("zero SSD config accepted")
	}
	if _, err := NewHDD(eng, "x", HDDConfig{}); err == nil {
		t.Fatal("zero HDD config accepted")
	}
}

// completionOrder issues n random reads tagged 0..n-1 against a fresh
// SSD and returns the order their completions fired.
func completionOrder(t *testing.T, n int) []int {
	t.Helper()
	eng := sim.NewEngine()
	ssd, err := NewSSD(eng, "m2", DefaultSSD())
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		ssd.Read(8192, false, func(err error) {
			if err != nil {
				t.Errorf("read %d: %v", i, err)
			}
			order = append(order, i)
		})
	}
	eng.Run()
	return order
}

// The SSD's channel TokenPool is strict-FIFO, so a burst of concurrent
// readers must complete in exactly issue order — on every run. This
// pins the determinism contract every experiment that reads through it
// relies on.
func TestSSDConcurrentReadersDeterministicOrder(t *testing.T) {
	const n = 64
	first := completionOrder(t, n)
	if len(first) != n {
		t.Fatalf("completed %d of %d", len(first), n)
	}
	for i, got := range first {
		if got != i {
			t.Fatalf("completion order %v: position %d is reader %d, want FIFO",
				first, i, got)
		}
	}
	for run := 0; run < 3; run++ {
		again := completionOrder(t, n)
		if fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("run %d order %v differs from first %v", run, again, first)
		}
	}
}

func TestHDDConcurrentReadersDeterministicOrder(t *testing.T) {
	eng := sim.NewEngine()
	hdd, _ := NewHDD(eng, "disk", DefaultHDD())
	const n = 16
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		hdd.Read(8192, false, func(error) { order = append(order, i) })
	}
	eng.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("single-actuator order %v not FIFO at %d", order, i)
		}
	}
}
