package ftl

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// BenchmarkOverwrite is one logical overwrite in steady-state GC, the
// collections it triggers included: the write's image (8 KiB, one
// allocation) and nothing else — the moves program the images their
// reads delivered, and the queue writes wait in behind a collection
// keeps its storage. Run with -benchmem. (A move alone is package rfs's
// BenchmarkMove, on both keyings.)
func BenchmarkOverwrite(b *testing.B) {
	geo := nand.Geometry{
		Buses: 2, ChipsPerBus: 2, BlocksPerChip: 8, PagesPerBlock: 16,
		PageSize: 8192, OOBSize: 1024,
	}
	h := newHarness(b, geo, nand.Reliability{}, Config{OverProvision: 0.25, GCLowWater: 2, GCPipeline: 4})
	f := h.ftl
	buf := page(f.geo, 2)
	rng := sim.NewRNG(1)
	ack := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 5*f.LogicalPages(); i++ { // every page written, then into steady-state GC
		lpn := i
		if i >= f.LogicalPages() {
			lpn = rng.Intn(f.LogicalPages())
		}
		f.Write(lpn, buf, ack)
		h.eng.Run()
	}
	b.SetBytes(int64(f.geo.PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	moves, fired := f.Log.Moves, h.eng.Fired()
	for i := 0; i < b.N; i++ {
		f.Write(rng.Intn(f.LogicalPages()), buf, ack)
		h.eng.Run()
	}
	b.ReportMetric(float64(f.Log.Moves-moves)/float64(b.N), "moves/op")
	b.ReportMetric(float64(h.eng.Fired()-fired)/float64(b.N), "events/op")
}
