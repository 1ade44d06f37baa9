package rfs

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/sched"
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
	limit := fs.lay.TotalPages() / 2
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

// BenchmarkCleanMove is the cost of one cleaner move on a cluster file
// system, the erase of each emptied victim shared among its pages: a
// Background read whose result, the image the victim page stores, is
// programmed back as it stands, so a move allocates nothing (0 B/op,
// 0 allocs/op). Cleans run whole, so the figures are computed per page
// actually moved (b.N rounded up to a segment) and reported in place
// of the built-in per-b.N ones. The twin of ftl's BenchmarkRelocate.
// Run with -benchmem.
func BenchmarkCleanMove(b *testing.B) {
	c, fs, _, collect := cleanRig(b)
	b.SetBytes(int64(fs.PageSize()))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	moves, fired := fs.CleanMoves, c.Eng.Fired()
	b.ResetTimer()
	for fs.CleanMoves-moves < int64(b.N) {
		collect()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(fs.CleanMoves - moves)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/op")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/op")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/op")
	b.ReportMetric(float64(c.Eng.Fired()-fired)/n, "events/op")
}

// cleanRig is a file system on a one-chip, wear-free cluster holding one file
// written once over half its log — every sealed segment all valid — and
// a collect func that cleans one of them, moving a whole segment of
// pages and nothing else. The low-water mark is above the log's size,
// so every allocation may start a clean, but the greedy rule finds no
// victim among all-valid segments: only collect, which hands the
// cleaner its victim, starts one. The cluster runs without the image
// guard, whose checksums are not the file system's; the pools and rings
// are warm when it returns.
func cleanRig(tb testing.TB) (*core.Cluster, *FS, *File, func()) {
	p := core.DefaultParams(1)
	p.CardsPerNode = 1
	p.Geometry.Buses, p.Geometry.ChipsPerBus = 1, 1
	p.Geometry.BlocksPerChip, p.Geometry.PagesPerBlock = 16, 8
	p.Reliability = nand.Reliability{} // no bit errors, no wear-out however long it runs
	c, err := core.NewCluster(p)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	fs, _, err := NewClusterFS(c, s, ClusterConfig{}, Config{CleanLowWater: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	f, err := fs.Create("rig")
	if err != nil {
		tb.Fatal(err)
	}
	page := make([]byte, fs.PageSize())
	ack := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < fs.lay.TotalPages()/2; i++ {
		f.AppendPage(page, ack)
		c.Run()
	}
	victim := -1
	pick := func() int { return victim }
	collect := func() {
		victim = -1
		for seg, u := range fs.Cleaner.Units {
			if !u.Active && u.Written == fs.lay.PagesPerSeg && u.Valid == fs.lay.PagesPerSeg {
				victim = seg
				break
			}
		}
		if victim < 0 {
			tb.Fatal("no sealed segment to clean")
		}
		fs.Cleaner.Pick = pick
		if !fs.Cleaner.Hold(func() {}) {
			tb.Fatal("no clean started")
		}
		fs.Cleaner.Pick = nil
		c.Run()
		if err := fs.Cleaner.Check(); err != nil {
			tb.Fatalf("clean did not finish: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		collect()
	}
	return c, fs, f, collect
}
