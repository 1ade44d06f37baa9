package ftl

import (
	"runtime"
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// BenchmarkRelocate is the cost of one GC move through the flash
// server, the erase of each emptied victim shared among its pages: a
// flash read whose result, the image the victim page stores, is
// programmed back as it stands, so a move allocates nothing (0 B/op,
// 0 allocs/op). Collections run whole, so the figures are
// computed per page actually moved (b.N rounded up to a block) and
// reported in place of the built-in per-b.N ones. Run with -benchmem.
func BenchmarkRelocate(b *testing.B) {
	h, collect := relocationRig(b)
	f, geo := h.ftl, h.ftl.geo
	b.SetBytes(int64(geo.PageSize))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	moves, fired := f.GCMoves, h.eng.Fired()
	b.ResetTimer()
	for f.GCMoves-moves < int64(b.N) {
		collect()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(f.GCMoves - moves)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/op")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/op")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/op")
	b.ReportMetric(float64(h.eng.Fired()-fired)/n, "events/op")
}

// relocationRig is a device whose every logical page is written once —
// the sealed blocks are all valid — and a collect func that forces the
// collection of one of them, moving a whole block of pages and nothing
// else: the collector is handed the coldest sealed block as its victim
// and told the pool is at its low-water mark. The pools and rings are
// warm when it returns.
func relocationRig(tb testing.TB) (*harness, func()) {
	geo := nand.Geometry{
		Buses: 2, ChipsPerBus: 2, BlocksPerChip: 8, PagesPerBlock: 16,
		PageSize: 8192, OOBSize: 1024,
	}
	h := newHarness(tb, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2, GCPipeline: 4})
	f := h.ftl
	buf := page(geo, 1)
	for lpn := 0; lpn < f.LogicalPages(); lpn++ {
		if err := h.write(tb, lpn, buf); err != nil {
			tb.Fatal(err)
		}
	}
	victim := -1
	pick, wear := func() int { return victim }, f.GC.Pick
	collect := func() {
		if victim = f.coldest(); victim < 0 {
			tb.Fatal("no sealed block to collect")
		}
		f.GC.Pick, f.GC.Free = pick, 0 // the next free-pool change restores Free
		if !f.GC.Hold(func() {}) {
			tb.Fatal("no collection started")
		}
		f.GC.Pick = wear
		h.eng.Run()
		if err := f.Check(); err != nil {
			tb.Fatalf("collection did not finish: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		collect()
	}
	return h, collect
}

// TestRelocationAllocatesOnePage (the name is from when a move cost the
// page its read snapshotted): a GC move allocates nothing. Its read
// delivers the image the victim page stores, and the move programs that
// image back.
func TestRelocationAllocatesOnePage(t *testing.T) {
	h, collect := relocationRig(t)
	f := h.ftl
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	moves := f.GCMoves
	for i := 0; i < 8; i++ {
		collect()
	}
	runtime.ReadMemStats(&m1)
	n := float64(f.GCMoves - moves)
	if n < 8*float64(f.geo.PagesPerBlock) {
		t.Fatalf("%.0f moves in 8 collections of all-valid blocks", n)
	}
	// A quarter of a page, not zero: the race detector's runtime
	// allocates some tens of bytes per move on its own.
	if got := float64(m1.TotalAlloc-m0.TotalAlloc) / n; got >= float64(f.geo.PageSize)/4 {
		t.Errorf("a GC move allocates %.0f B: it pays for a page", got)
	}
	if got := float64(m1.Mallocs-m0.Mallocs) / n; got >= 0.1 {
		t.Errorf("a GC move makes %.2f allocations, want 0", got)
	}
}

// BenchmarkOverwrite is one logical overwrite in steady-state GC, the
// collections it triggers included: the write's image (8 KiB, one
// allocation) and nothing else — the moves program the images their
// reads delivered, and the queue writes wait in behind a collection
// keeps its storage. Run with -benchmem.
func BenchmarkOverwrite(b *testing.B) {
	h, _ := relocationRig(b)
	f := h.ftl
	buf := page(f.geo, 2)
	rng := sim.NewRNG(1)
	ack := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4*f.LogicalPages(); i++ { // into steady-state GC
		f.Write(rng.Intn(f.LogicalPages()), buf, ack)
		h.eng.Run()
	}
	b.SetBytes(int64(f.geo.PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	moves, fired := f.GCMoves, h.eng.Fired()
	for i := 0; i < b.N; i++ {
		f.Write(rng.Intn(f.LogicalPages()), buf, ack)
		h.eng.Run()
	}
	b.ReportMetric(float64(f.GCMoves-moves)/float64(b.N), "moves/op")
	b.ReportMetric(float64(h.eng.Fired()-fired)/float64(b.N), "events/op")
}
