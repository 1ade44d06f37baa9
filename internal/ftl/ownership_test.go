package ftl

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/nand"
	"repro/internal/reclaim"
	"repro/internal/sim"
)

// A written page is one image from the logical write to the cell: the
// buffer WriteTagged allocates is the one the card stores. The test
// watches the FTL/port boundary with a spy and compares what crossed it
// with what the card holds; the card runs under the image guard. (How a
// move and a bad-block retry keep the image is the log's, tested on
// both keyings in package rfs.)

// spyPort records every image handed to a program.
type spyPort struct {
	reclaim.Port
	card   *nand.Card
	geo    nand.Geometry
	writes []spyWrite // every Program in issue order, outcome filled in on completion
}

type spyWrite struct {
	img    []byte
	err    error
	stored bool // on completion the card held img itself at its page
}

func (b *spyPort) Program(ppn int, tag uint8, img []byte, cb func(error)) {
	i := len(b.writes)
	b.writes = append(b.writes, spyWrite{img: img})
	b.Port.Program(ppn, tag, img, func(err error) {
		stored := b.card.Peek(b.geo.AddrOf(ppn))
		b.writes[i].err = err
		b.writes[i].stored = err == nil && len(stored) > 0 && &stored[0] == &img[0]
		cb(err)
	})
}

// churn seeds every logical page and then overwrites at random until
// the collector has moved pages, returning the last version written of
// each page.
func churn(t testing.TB, h *harness, geo nand.Geometry, overwrites int) map[int]byte {
	t.Helper()
	lpns := h.ftl.LogicalPages()
	version := make(map[int]byte)
	for lpn := 0; lpn < lpns; lpn++ {
		if err := h.write(t, lpn, page(geo, byte(lpn))); err != nil {
			t.Fatalf("seed lpn %d: %v", lpn, err)
		}
		version[lpn] = byte(lpn)
	}
	rng := sim.NewRNG(7)
	for i := 0; i < overwrites; i++ {
		lpn, v := rng.Intn(lpns), byte(rng.Intn(256))
		if err := h.write(t, lpn, page(geo, v)); err != nil {
			t.Fatalf("overwrite %d (lpn %d): %v", i, lpn, err)
		}
		version[lpn] = v
	}
	return version
}

// TestWriteTaggedImageReachesTheCard: the snapshot WriteTagged takes is
// an image of its own (never the caller's buffer, whatever its
// capacity), and that image — not a copy of it — is what the card
// stores. The caller scribbles on its buffer when the call returns and
// again when its callback fires; flash is unmoved.
func TestWriteTaggedImageReachesTheCard(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo, nand.Reliability{}, DefaultConfig())
	spy := &spyPort{Port: h.ftl.Log.Port, card: h.card, geo: geo}
	h.ftl.Log.Port = spy
	want := page(geo, 0x3c)
	// The caller's buffer has the capacity of an image: ownership must
	// not be inferred from it.
	buf := geo.PageImage(want)
	scribble := func() {
		b := buf[:cap(buf)]
		for i := range b {
			b[i] = 0xff
		}
	}
	h.ftl.WriteTagged(5, buf, 1, func(err error) {
		if err != nil {
			t.Error(err)
		}
		scribble()
	})
	scribble()
	h.eng.Run()

	if len(spy.writes) != 1 {
		t.Fatalf("%d programs for one write", len(spy.writes))
	}
	w := spy.writes[0]
	if !geo.IsPageImage(w.img) {
		t.Fatalf("the FTL handed down len %d cap %d, not a page image", len(w.img), cap(w.img))
	}
	if &w.img[0] == &buf[0] {
		t.Fatal("WriteTagged adopted the caller's buffer")
	}
	if !w.stored {
		t.Fatal("the card does not store the buffer WriteTagged allocated")
	}
	if got, err := h.read(t, 5); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back: err %v; the caller's scribbling reached flash", err)
	}
}

// TestWritesAllocateOnePagePerProgram extends flashserver's
// TestPageOpsAllocateOnePage upward: under steady-state GC a logical
// write costs one page-sized buffer — the host write's image. The
// programs the collector adds cost none: a move programs back the image
// its read delivered, which is the one the victim page stores.
func TestWritesAllocateOnePagePerProgram(t *testing.T) {
	geo := smallGeo()
	h := newHarness(t, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2})
	churn(t, h, geo, 2*h.ftl.LogicalPages()) // into steady-state GC, pools warm
	f := h.ftl
	lpns := f.LogicalPages()
	rng := sim.NewRNG(3)
	buf := page(geo, 1)
	progs, moves, writes := f.Log.Programs, f.Log.Moves, f.Log.Writes
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 4*lpns; i++ {
		if err := h.write(t, rng.Intn(lpns), buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	progs, moves, writes = f.Log.Programs-progs, f.Log.Moves-moves, f.Log.Writes-writes
	if moves == 0 || progs != writes+moves {
		t.Fatalf("window: %d host writes, %d moves, %d programs", writes, moves, progs)
	}
	got := float64(after.TotalAlloc - before.TotalAlloc)
	if budget := 1.15 * float64(writes) * float64(geo.PageSize); got >= budget {
		t.Errorf("%d host writes (%d programs, %d of them GC moves) allocated %.0f B, budget %.0f: more than one page per host write",
			writes, progs, moves, got, budget)
	}
}
