package nand

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
)

// readRaw reads one page synchronously (driving the engine) and
// returns the raw image.
func readRaw(t *testing.T, eng *sim.Engine, c *Card, a Addr) []byte {
	t.Helper()
	var got []byte
	c.ReadPage(a, func(r []byte, err error) {
		if err != nil {
			t.Fatalf("read %v: %v", a, err)
		}
		got = r
	})
	eng.Run()
	return got
}

// TestInjectorPerBlockDeterminism pins the injector's defining
// property: a block's flip pattern is a pure function of its own
// (seed, block, erase count, read serial) history, independent of how
// reads to other blocks interleave with it. Two cards with the same
// seed see identical per-block noise even though one interleaves its
// reads with heavy traffic to a different block.
func TestInjectorPerBlockDeterminism(t *testing.T) {
	rel := Reliability{BitErrorRate: 1e-3}
	run := func(interleave bool) [][]byte {
		eng := sim.NewEngine()
		c, err := NewCard(eng, "det", testGeometry(), DefaultTiming(), rel, 77)
		if err != nil {
			t.Fatal(err)
		}
		target := Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
		other := Addr{Bus: 1, Chip: 1, Block: 3, Page: 0}
		c.ProgramPage(target, mkRaw(c, 0x55), func(error) {})
		c.ProgramPage(other, mkRaw(c, 0xaa), func(error) {})
		eng.Run()
		var reads [][]byte
		for i := 0; i < 8; i++ {
			if interleave {
				for j := 0; j < 3; j++ {
					readRaw(t, eng, c, other)
				}
			}
			reads = append(reads, readRaw(t, eng, c, target))
		}
		return reads
	}
	plain := run(false)
	mixed := run(true)
	for i := range plain {
		if !bytes.Equal(plain[i], mixed[i]) {
			t.Fatalf("read %d of block 0 differs when interleaved with other-block traffic", i)
		}
	}
}

// TestInjectorWearScaling checks that the effective error rate grows
// with erase count: a heavily worn block accumulates measurably more
// flips over many reads than a fresh one.
func TestInjectorWearScaling(t *testing.T) {
	eng := sim.NewEngine()
	rel := Reliability{BitErrorRate: 2e-4, EnduranceCycles: 10}
	c, err := NewCard(eng, "wear", testGeometry(), DefaultTiming(), rel, 9)
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	countFlips := func(reads int) int {
		c.ProgramPage(a, mkRaw(c, 0x33), func(error) {})
		eng.Run()
		want := mkRaw(c, 0x33)
		flips := 0
		for i := 0; i < reads; i++ {
			got := readRaw(t, eng, c, a)
			for j := range got {
				if got[j] != want[j] {
					flips++
				}
			}
		}
		return flips
	}
	fresh := countFlips(400)
	// Wear the block to 5x endurance: effective rate 6x the fresh rate.
	for i := 0; i < 50; i++ {
		c.EraseBlock(a, func(err error) {
			if err != nil {
				t.Fatalf("erase %d: %v", i, err)
			}
		})
		eng.Run()
	}
	worn := countFlips(400)
	if worn <= fresh*2 {
		t.Fatalf("wear did not scale the error rate: fresh=%d flips, worn=%d", fresh, worn)
	}
}

// TestReadDisturb checks the optional read-disturb knob: with it set,
// a block's late reads (high read serial since erase) see more flips
// than its early ones.
func TestReadDisturb(t *testing.T) {
	eng := sim.NewEngine()
	rel := Reliability{BitErrorRate: 1e-4, ReadDisturb: 0.05}
	c, err := NewCard(eng, "rd", testGeometry(), DefaultTiming(), rel, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{Bus: 0, Chip: 0, Block: 1, Page: 0}
	c.ProgramPage(a, mkRaw(c, 0x77), func(error) {})
	eng.Run()
	want := mkRaw(c, 0x77)
	flipsIn := func(reads int) int {
		flips := 0
		for i := 0; i < reads; i++ {
			got := readRaw(t, eng, c, a)
			for j := range got {
				if got[j] != want[j] {
					flips++
				}
			}
		}
		return flips
	}
	early := flipsIn(200) // serials 0..199: rate ~1x..11x
	late := flipsIn(200)  // serials 200..399: rate ~11x..21x
	if late <= early {
		t.Fatalf("read disturb did not raise the late-read error rate: early=%d late=%d", early, late)
	}
}

// TestFailAndReplace pins the card fault domain: after Fail every
// operation returns ErrDead; after Replace the card is blank and fully
// serviceable again.
func TestFailAndReplace(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	c.ProgramPage(a, mkRaw(c, 0x11), func(err error) {
		if err != nil {
			t.Fatalf("program before failure: %v", err)
		}
	})
	eng.Run()

	c.Fail()
	if !c.Failed() {
		t.Fatal("Failed() = false after Fail")
	}
	var rErr, pErr, eErr error
	c.ReadPage(a, func(_ []byte, err error) { rErr = err })
	c.ProgramPage(Addr{0, 0, 0, 1}, mkRaw(c, 2), func(err error) { pErr = err })
	c.EraseBlock(Addr{0, 0, 1, 0}, func(err error) { eErr = err })
	eng.Run()
	for name, err := range map[string]error{"read": rErr, "program": pErr, "erase": eErr} {
		if !errors.Is(err, ErrDead) {
			t.Errorf("%s err = %v, want ErrDead", name, err)
		}
	}

	c.Replace()
	if c.Failed() {
		t.Fatal("Failed() = true after Replace")
	}
	// The replacement is blank: the old data is gone, pages are free.
	var freshErr error
	c.ReadPage(a, func(_ []byte, err error) { freshErr = err })
	eng.Run()
	if !errors.Is(freshErr, ErrReadFree) {
		t.Fatalf("read on replaced card = %v, want ErrReadFree (blank card)", freshErr)
	}
	if c.EraseCount(a) != 0 {
		t.Fatalf("erase count %d on replaced card, want 0", c.EraseCount(a))
	}
	// And fully serviceable: program/read round-trips.
	raw := mkRaw(c, 0x99)
	c.ProgramPage(a, raw, func(err error) {
		if err != nil {
			t.Fatalf("program on replaced card: %v", err)
		}
	})
	eng.Run()
	if got := readRaw(t, eng, c, a); !bytes.Equal(got, raw) {
		t.Fatal("replaced card returned wrong data")
	}
}

// TestFailDrainsQueuedOps: operations queued behind the failure point
// complete (with ErrDead), never hang — the layer above relies on
// every callback firing.
func TestFailDrainsQueuedOps(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	a := Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	c.ProgramPage(a, mkRaw(c, 1), func(error) {})
	eng.Run()
	// Queue several reads, then fail before the engine runs them. Read 0
	// is dispatched to the chip at enqueue time — it passed its fault
	// check and finishes like an in-flight DMA; reads 1..3 sit in the
	// chip queue and must drain with ErrDead, never hang.
	errs := make([]error, 4)
	for i := range errs {
		i := i
		c.ReadPage(a, func(_ []byte, err error) { errs[i] = err })
	}
	c.Fail()
	eng.Run()
	if errs[0] != nil {
		t.Errorf("in-flight read 0: err = %v, want nil (already dispatched)", errs[0])
	}
	for i, err := range errs[1:] {
		if !errors.Is(err, ErrDead) {
			t.Errorf("queued read %d: err = %v, want ErrDead", i+1, err)
		}
	}
}

// TestCorruptAllocFree pins the injector's noise computation at zero
// allocations: it runs on every flash read of every experiment.
func TestCorruptAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	rel := Reliability{BitErrorRate: 1e-3, EnduranceCycles: 100, ReadDisturb: 0.01}
	c, err := NewCard(eng, "alloc", testGeometry(), DefaultTiming(), rel, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, c.Geometry().StoredPageSize())
	serial := int64(0)
	n := alloctest.Mallocs(200, func() {
		flips, s := c.drawFlips(len(buf)*8, 5, 7, serial)
		c.applyFlips(buf, flips, s)
		serial++
	})
	if n != 0 {
		t.Fatalf("drawing and applying 200 reads' flips allocates %d objects, want 0", n)
	}
}
