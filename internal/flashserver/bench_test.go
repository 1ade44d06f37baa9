package flashserver

import (
	"testing"

	"repro/internal/nand"
)

// The flash path's cost per page, NAND to callback, one op at a time on
// a warm stack: ns/op is host time, B/op and allocs/op the heap traffic
// (a clean read allocates nothing, it delivers the stored image; a
// program its one page image), events/op the engine events.
// Run with -benchmem.

// benchAddr lays pages out bus-first so each block is programmed in
// page order.
func benchAddr(geo nand.Geometry, i int) nand.Addr {
	chips := geo.Buses * geo.ChipsPerBus
	return nand.Addr{Bus: i % geo.Buses, Chip: i / geo.Buses % geo.ChipsPerBus,
		Page: i / chips % geo.PagesPerBlock, Block: i / (chips * geo.PagesPerBlock) % geo.BlocksPerChip}
}

// BenchmarkReadPhysical reads pages written through the controller,
// which seals them: a clean read skips the decode. At a bit error rate
// of one flip per stored page, every read draws a flip instead and pays
// for the ECC work left on the host — the card's fill of the flipped
// copy's check bytes and the decode — and its two private copies (the
// card's flipped one and the corrected one).
func BenchmarkReadPhysical(b *testing.B) {
	b.Run("clean", func(b *testing.B) { benchReadPhysical(b, 0) })
	b.Run("every-read-flips", func(b *testing.B) {
		benchReadPhysical(b, 1/float64(8*testGeometry().StoredPageSize()))
	})
}

func benchReadPhysical(b *testing.B, ber float64) {
	eng, card, srv := stackWith(b, ber, 8, nil)
	f := srv.NewIface()
	geo := card.Geometry()
	const pages = 64
	ack := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < pages; i++ {
		f.WritePhysical(benchAddr(geo, i), pattern(geo.PageSize, byte(i)), ack)
	}
	eng.Run()
	got := func(d []byte, err error) {
		if err != nil || len(d) != geo.PageSize {
			b.Fatalf("read: %d bytes, err %v", len(d), err)
		}
	}
	b.SetBytes(int64(geo.PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	fired := eng.Fired()
	for i := 0; i < b.N; i++ {
		f.ReadPhysical(benchAddr(geo, i%pages), got)
		eng.Run()
	}
	b.ReportMetric(float64(eng.Fired()-fired)/float64(b.N), "events/op")
}

// BenchmarkWritePhysical times a program: the snapshot WritePhysical
// takes, the link and the card. Nothing encodes the check bytes; a
// sealed page's are computed only where a read draws flips.
func BenchmarkWritePhysical(b *testing.B) {
	eng, card, srv := stack(b, 8)
	f := srv.NewIface()
	geo := card.Geometry()
	chips := geo.Buses * geo.ChipsPerBus
	ack := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	page := pattern(geo.PageSize, 9)
	b.SetBytes(int64(geo.PageSize))
	b.ReportAllocs()
	b.ResetTimer()
	var fired uint64
	for i := 0; i < b.N; i++ {
		a := benchAddr(geo, i)
		if a.Page == 0 && i >= chips*geo.PagesPerBlock*geo.BlocksPerChip {
			// The card has been written once over: reuse needs an erase,
			// which is not the cost being measured.
			b.StopTimer()
			f.Erase(a, ack)
			eng.Run()
			b.StartTimer()
		}
		before := eng.Fired()
		f.WritePhysical(a, page, ack)
		eng.Run()
		fired += eng.Fired() - before
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}
