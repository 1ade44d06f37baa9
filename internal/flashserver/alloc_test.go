package flashserver_test

import (
	"runtime"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/flashserver"
	"repro/internal/nand"
)

// allocBytesPerOp runs op n times on a warm stack and returns the mean
// bytes allocated per call (runtime.MemStats.TotalAlloc).
func allocBytesPerOp(n int, op func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestPageOpsAllocateOnePage pins the budget of the whole flash path,
// NAND to callback: one page-sized allocation per program (the
// WritePhysical snapshot the card ends up storing), none at all per
// clean read (it delivers the stored image), and nothing else — every
// continuation on the way is bound once. Three page-sized allocations
// per op used to hide here; one cannot come back unnoticed. (The layers
// above pin the same budget per physical program: ftl's and volume's
// TestWritesAllocateOnePagePerProgram, sched's TestFlashOpsAllocateOnePage.)
//
// The counts are exact (alloctest.Mallocs), so they also hold the card's
// per-block tables to the blocks it first programs: the page table, and
// under the image guard the checksum table, each made once per block.
// The writes visit the chips round-robin, page by page, so a round of
// chips × PagesPerBlock writes first-programs one block on every chip.
// This test sits outside the package because coretest imports core,
// which imports flashserver.
func TestPageOpsAllocateOnePage(t *testing.T) {
	eng, card, srv := flashserver.Stack(t, 8)
	f := srv.NewIface()
	geo := card.Geometry()
	budget := 1.02 * float64(geo.PageSize) // an 8 KiB image, no tail rounding it up
	chips := geo.Buses * geo.ChipsPerBus
	addr := func(i int) nand.Addr {
		return nand.Addr{Bus: i % geo.Buses, Chip: i / geo.Buses % geo.ChipsPerBus,
			Block: i / (chips * geo.PagesPerBlock),
			Page:  i / chips % geo.PagesPerBlock}
	}
	page := flashserver.Pattern(geo.PageSize, 3)
	ack := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	write := func(i int) {
		f.WritePhysical(addr(i), page, ack)
		eng.Run()
	}
	round := chips * geo.PagesPerBlock
	warm, n := round, 2*round
	for i := 0; i < warm; i++ {
		write(i)
	}
	if got := allocBytesPerOp(n, func(i int) { write(warm + i) }); got >= budget {
		t.Errorf("WritePhysical allocates %.0f B per page, budget %.0f", got, budget)
	}
	tables := 1 // the block's page table
	if card.Guarded() {
		tables++ // and its checksum table
	}
	next := warm + n
	if got, want := alloctest.Mallocs(round, func() { write(next); next++ }), uint64(round+tables*chips); got != want {
		t.Errorf("WritePhysical makes %d allocations in %d pages over %d new blocks, want %d (one image per page, %d tables per block)",
			got, round, chips, want, tables)
	}

	got := func(d []byte, err error) {
		if err != nil || len(d) != geo.PageSize {
			t.Errorf("read: %d bytes, err %v", len(d), err)
		}
	}
	written := warm + n
	read := func(i int) {
		f.ReadPhysical(addr(i%written), got)
		eng.Run()
	}
	for i := 0; i < warm; i++ {
		read(i)
	}
	i := 0
	if a := alloctest.Mallocs(64, func() { read(i); i++ }); a != 0 {
		t.Errorf("ReadPhysical makes %d allocations in 64 pages, want 0 (a clean read delivers the stored image)", a)
	}
}
