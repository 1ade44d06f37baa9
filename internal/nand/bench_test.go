package nand

import (
	"testing"

	"repro/internal/sim"
)

// The card's cost per page, one command at a time on a warm card:
// ns/op is host time, B/op and allocs/op the heap traffic (a read's
// snapshot is the only allocation; a program adopts its image and
// allocates nothing), events/op the engine events. Run with -benchmem.

func benchCard(b *testing.B) (*sim.Engine, *Card) {
	eng := sim.NewEngine()
	g := testGeometry()
	g.PageSize, g.OOBSize = 8192, 1024
	c, err := NewCard(eng, "b", g, DefaultTiming(), Reliability{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return eng, c
}

// benchAddr lays pages out so each block is programmed in page order.
func benchAddr(g Geometry, i int) Addr {
	chips := g.Buses * g.ChipsPerBus
	return Addr{Bus: i % g.Buses, Chip: i / g.Buses % g.ChipsPerBus,
		Page: i / chips % g.PagesPerBlock, Block: i / (chips * g.PagesPerBlock) % g.BlocksPerChip}
}

func BenchmarkReadPage(b *testing.B) {
	eng, c := benchCard(b)
	g := c.Geometry()
	const pages = 64
	ack := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < pages; i++ {
		c.ProgramPage(benchAddr(g, i), mkRaw(c, byte(i)), ack)
	}
	eng.Run()
	got := func(raw []byte, err error) {
		if err != nil || len(raw) != g.StoredPageSize() {
			b.Fatalf("read: %d bytes, err %v", len(raw), err)
		}
	}
	b.SetBytes(int64(g.PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	fired := eng.Fired()
	for i := 0; i < b.N; i++ {
		c.ReadPage(benchAddr(g, i%pages), got)
		eng.Run()
	}
	b.ReportMetric(float64(eng.Fired()-fired)/float64(b.N), "events/op")
}

func BenchmarkProgramPage(b *testing.B) {
	eng, c := benchCard(b)
	g := c.Geometry()
	ack := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(g.PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	var fired uint64
	for i := 0; i < b.N; i++ {
		a := benchAddr(g, i)
		// Making the image is the caller's cost (flashserver's
		// BenchmarkWritePhysical counts it), and reuse of a block needs
		// an erase: neither is what is measured here.
		b.StopTimer()
		raw := mkRaw(c, byte(i))
		if a.Page == 0 && i >= g.TotalPages() {
			c.EraseBlock(a, ack)
			eng.Run()
		}
		b.StartTimer()
		before := eng.Fired()
		c.ProgramPage(a, raw, ack)
		eng.Run()
		fired += eng.Fired() - before
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}

// BenchmarkNewCard builds largeGeometry's card, 1 M page slots: B/op is
// what a card costs before it stores a page, one record per block.
func BenchmarkNewCard(b *testing.B) {
	eng := sim.NewEngine()
	g := largeGeometry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCard(eng, "large", g, DefaultTiming(), Reliability{}, 1); err != nil {
			b.Fatal(err)
		}
	}
}
