package nand

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
)

// TestPageImageShape: the constructor's contract. An image is a private
// copy of the page, PageSize bytes and nothing behind it, and
// PageImage allocates exactly that; a wrong-size payload is copied at
// its own length, which no adopting call accepts. A read result is an
// image by its length alone, whoever else holds it.
func TestPageImageShape(t *testing.T) {
	g := testGeometry()
	data := bytes.Repeat([]byte{0x5a}, g.PageSize)
	img := g.PageImage(data)
	if len(img) != g.PageSize || cap(img) != g.PageSize || !g.IsPageImage(img) {
		t.Fatalf("image has len %d cap %d", len(img), cap(img))
	}
	if &img[0] == &data[0] || !bytes.Equal(img, data) {
		t.Fatal("an image is a private copy of the page")
	}
	for _, n := range []int{0, 100, g.PageSize + 1, g.StoredPageSize()} {
		bad := g.PageImage(make([]byte, n))
		if len(bad) != n || g.IsPageImage(bad) {
			t.Fatalf("a %d-byte payload became len %d, image %v", n, len(bad), g.IsPageImage(bad))
		}
	}
	if !g.IsPageImage(data[:g.PageSize:g.PageSize]) {
		t.Fatal("a page-length buffer is not an image")
	}

	// An 8 KiB image is one 8 KiB object: no check-byte tail rounds it
	// up to a larger size class.
	g.PageSize, g.OOBSize = 8192, 1024
	page := make([]byte, g.PageSize)
	const n = 64
	keep := make([][]byte, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range keep {
		keep[i] = g.PageImage(page)
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got < n*8192 || got >= n*8192+8192 {
		t.Fatalf("%d images allocated %d B, want %d (%d B each)", n, got, n*8192, 8192)
	}
}

// TestInterleavedCommandsMatchTheirCallbacks: commands carry no
// continuation of their own — a chip, a bus and the card's erases each
// have one, which pops the command it is for — so reads, programs and
// erases interleaved on chips that share a bus must still each hear
// their own outcome, and the whole path must allocate nothing.
func TestInterleavedCommandsMatchTheirCallbacks(t *testing.T) {
	eng := sim.NewEngine()
	c := perfectCard(t, eng)
	g := c.Geometry()
	const pages = 6
	// Two chips on bus 0, one on bus 1; pages 0..5 of block 0 on each.
	chips := []Addr{{Bus: 0, Chip: 0}, {Bus: 0, Chip: 1}, {Bus: 1, Chip: 0}}
	fillOf := func(ci, p int) byte { return byte(0x10*ci + p + 1) }
	progAcks := 0
	for p := 0; p < pages; p++ {
		for ci, ch := range chips {
			a := ch
			a.Page = p
			c.ProgramPage(a, mkRaw(c, fillOf(ci, p)), func(err error) {
				if err != nil {
					t.Errorf("program %v: %v", a, err)
				}
				progAcks++
			})
		}
	}
	eng.Run()
	if progAcks != pages*len(chips) {
		t.Fatalf("%d program acks", progAcks)
	}

	// Now everything at once: reads of every page, programs of the next
	// page of each block, an erase of another block on each chip, a read
	// of an unwritten page that must fail without disturbing the rest.
	reads, acks, erases, failed := 0, 0, 0, 0
	type readCB = func([]byte, error)
	readCBs := make(map[Addr]readCB)
	for p := 0; p < pages; p++ {
		for ci, ch := range chips {
			a, want := ch, fillOf(ci, p)
			a.Page = p
			readCBs[a] = func(raw []byte, err error) {
				if err != nil || len(raw) != g.StoredPageSize() || raw[0] != want || raw[len(raw)-1] != want {
					t.Errorf("read %v: err %v, wrong page", a, err)
				}
				reads++
			}
		}
	}
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
		acks++
	}
	erased := func(err error) {
		if err != nil {
			t.Error(err)
		}
		erases++
	}
	unwritten := func(_ []byte, err error) {
		if !errors.Is(err, ErrReadFree) {
			t.Errorf("read of an unwritten page: %v", err)
		}
		failed++
	}
	next := pages
	raws := make([][]byte, 0, 64)
	round := func(failing bool) {
		for p := 0; p < pages; p++ {
			for _, ch := range chips {
				a := ch
				a.Page = p
				c.ReadPage(a, readCBs[a])
			}
			if p == 2 {
				for i, ch := range chips {
					a := ch
					a.Page = next
					c.ProgramPage(a, raws[i], ack)
					c.EraseBlock(Addr{Bus: ch.Bus, Chip: ch.Chip, Block: 3}, erased)
					if failing {
						c.ReadPage(Addr{Bus: ch.Bus, Chip: ch.Chip, Block: 5}, unwritten)
					}
				}
			}
		}
		next++
		eng.Run()
	}
	for range chips {
		raws = append(raws, mkRaw(c, 0xcc))
	}
	round(true)
	if reads != pages*len(chips) || acks != len(chips) || erases != len(chips) || failed != len(chips) {
		t.Fatalf("reads %d, program acks %d, erases %d, failed reads %d", reads, acks, erases, failed)
	}

	// Steady state, no command failing, no read drawing a bit error:
	// no allocation at all.
	for i := range raws {
		raws[i] = mkRaw(c, 0xcd)
	}
	round(false) // rings at their high-water mark
	fresh := make([][]byte, 0, 8*len(chips))
	for i := 0; i < cap(fresh); i++ {
		fresh = append(fresh, mkRaw(c, 0xce))
	}
	// Two rounds a window: under the race detector, which counts the
	// least of three windows, they program six more pages of each
	// block, and twelve would not fit in it.
	if allocs := alloctest.Mallocs(2, func() {
		copy(raws, fresh[:len(chips)])
		fresh = fresh[len(chips):]
		round(false)
	}); allocs != 0 {
		t.Fatalf("2 rounds of %d reads, %d programs and %d erases allocate %d times, want none",
			pages*len(chips), len(chips), len(chips), allocs)
	}
}

// TestOnlyFlipDrawingReadsAllocate: at an error rate where about half
// the reads of a page draw a flip (never more than one), the reads
// allocate exactly one buffer per flip drawn — the private copy the
// flip is applied to — and the clean ones among them nothing.
func TestOnlyFlipDrawingReadsAllocate(t *testing.T) {
	eng := sim.NewEngine()
	c, err := NewCard(eng, "noisy", testGeometry(), DefaultTiming(), Reliability{BitErrorRate: 1e-4, GuardImages: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{Bus: 1, Chip: 1, Block: 4}
	stored := mkRaw(c, 0x77)
	c.ProgramPage(a, stored, func(error) {})
	eng.Run()
	const reads = 200
	shared := 0
	cb := func(raw []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		if &raw[0] == &stored[0] {
			shared++
		}
	}
	var flipsBefore int64
	b := &c.blocks[c.blockIndex(a)]
	serial := b.reads
	allocs := alloctest.Mallocs(1, func() {
		// The read serials restart, so every window draws the same flips.
		b.reads = serial
		flipsBefore, shared = c.InjectedFlips.Value(), 0
		for i := 0; i < reads; i++ {
			c.ReadPage(a, cb)
			eng.Run()
		}
	})
	drew := c.InjectedFlips.Value() - flipsBefore
	if drew < reads/4 || drew > 3*reads/4 {
		t.Fatalf("test premise: %d of %d reads drew a flip, want about half", drew, reads)
	}
	if allocs != uint64(drew) || shared != reads-int(drew) {
		t.Fatalf("%d reads, %d of which drew a flip, made %d allocations and delivered the stored image %d times",
			reads, drew, allocs, shared)
	}
}
