package rfs

import (
	"fmt"
	"testing"
)

// BenchmarkAppendPage is the cost of one append to a cluster file —
// file system, sequencer, scheduler, doorbell, host DMA, flash server,
// controller, card — one at a time: ns/op is host time, B/op and
// allocs/op the heap traffic (one page image, the append's 8 KiB, is
// the floor), events/op the engine events. The file is dropped and
// started again, off the clock, before it fills the log; erasing its
// dead segments is part of what later appends pay. Run with -benchmem.
func BenchmarkAppendPage(b *testing.B) {
	c, _, fs := newClusterFS(b, 1, 4)
	page := make([]byte, fs.PageSize())
	for i := range page {
		page[i] = byte(i * 5)
	}
	ack := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	limit := fs.totalPages() / 2
	gen := 0
	f, err := fs.Create("f0")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ { // pools and rings reach their size
		f.AppendPage(page, ack)
		c.Run()
	}
	b.SetBytes(int64(fs.PageSize()))
	b.ReportAllocs()
	b.ResetTimer()
	var fired uint64
	for i := 0; i < b.N; i++ {
		if f.Pages() >= limit {
			b.StopTimer()
			if err := fs.Remove(f.Name()); err != nil {
				b.Fatal(err)
			}
			gen++
			if f, err = fs.Create(fmt.Sprintf("f%d", gen)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		before := c.Eng.Fired()
		f.AppendPage(page, ack)
		c.Run()
		fired += c.Eng.Fired() - before
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}
