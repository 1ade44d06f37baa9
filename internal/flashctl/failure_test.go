package flashctl

import (
	"errors"
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// TestUncorrectableErrorSurfaced injects a bit-error storm dense enough
// that some 64-bit word takes two flips, which SEC-DED must detect and
// the controller must surface as ErrUncorrectable rather than silently
// returning corrupt data.
func TestUncorrectableErrorSurfaced(t *testing.T) {
	eng := sim.NewEngine()
	// ~150 flips per 9216-byte page: two-in-one-word collisions are
	// essentially certain across a few reads.
	rel := nand.Reliability{BitErrorRate: 2e-3}
	card, err := nand.NewCard(eng, "storm", testGeometry(), nand.DefaultTiming(), rel, 9)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[int]error)
	var ctl *Controller
	ctl, err = New(eng, card, DefaultConfig(), Handlers{
		ReadDone:     func(tag, corrected int, err error) { results[tag] = err },
		WriteDataReq: func(tag int) { writePage(ctl, tag, make([]byte, 8192)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := nand.Addr{Bus: 0, Chip: 0, Block: 0, Page: 0}
	if err := ctl.Issue(Command{Op: OpWrite, Tag: 0, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	sawUncorrectable := false
	for i := 0; i < 20; i++ {
		if err := ctl.Issue(Command{Op: OpRead, Tag: 1, Addr: addr}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if err := results[1]; err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("read %d: unexpected error %v", i, err)
			}
			sawUncorrectable = true
			break
		}
	}
	if !sawUncorrectable {
		t.Fatal("storm never produced an uncorrectable page; injection too weak")
	}
	if ctl.Uncorrectable.Value() == 0 {
		t.Fatal("uncorrectable counter not incremented")
	}
	if ctl.FreeTags() != ctl.Config().Tags {
		t.Fatal("tag leaked after uncorrectable read")
	}
}

// TestCorrectionRateGrowsWithWear verifies the wear model feeds the
// ECC path: a heavily-cycled block yields more corrected bits per read
// than a fresh one.
func TestCorrectionRateGrowsWithWear(t *testing.T) {
	eng := sim.NewEngine()
	rel := nand.Reliability{BitErrorRate: 3e-6, EnduranceCycles: 100, WearOutProb: 0}
	card, err := nand.NewCard(eng, "wear", testGeometry(), nand.DefaultTiming(), rel, 10)
	if err != nil {
		t.Fatal(err)
	}
	var ctl *Controller
	writeData := make(map[int][]byte)
	ctl, err = New(eng, card, DefaultConfig(), Handlers{
		WriteDataReq: func(tag int) { writePage(ctl, tag, writeData[tag]) },
	})
	if err != nil {
		t.Fatal(err)
	}

	measure := func(block int, preErase int) int64 {
		addr := nand.Addr{Bus: 0, Chip: 0, Block: block, Page: 0}
		for i := 0; i < preErase; i++ {
			if err := ctl.Issue(Command{Op: OpErase, Tag: 0, Addr: addr}); err != nil {
				t.Fatal(err)
			}
			eng.Run()
		}
		writeData[0] = make([]byte, 8192)
		if err := ctl.Issue(Command{Op: OpWrite, Tag: 0, Addr: addr}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		before := ctl.CorrectedBits.Value()
		for i := 0; i < 400; i++ {
			if err := ctl.Issue(Command{Op: OpRead, Tag: 0, Addr: addr}); err != nil {
				t.Fatal(err)
			}
			eng.Run()
		}
		return ctl.CorrectedBits.Value() - before
	}

	fresh := measure(0, 0)
	worn := measure(1, 300) // 3x endurance -> 4x error rate
	if worn <= fresh {
		t.Fatalf("worn block corrected %d bits vs fresh %d; wear should raise the error rate", worn, fresh)
	}
}
