package cache

import (
	"testing"

	"repro/internal/sched"
)

// BenchmarkCacheRead is the host cost of one cache read, one at a time
// on a warm one-node stack: a hit (lookup, pin, DRAM charge) and a
// miss-fill (CLOCK eviction, the volume read down to NAND, the install
// of the delivered image as the frame's view). ns/op is host time, B/op
// and allocs/op the heap traffic, misses/op which path ran and
// events/op the engine events. A hit is expected at 0 B/op. A fill keeps
// the image flash delivered, so a miss-fill is expected at 0 B/op too.
// Run with -benchmem.
func BenchmarkCacheRead(b *testing.B) {
	const frames = 8
	b.Run("hit", func(b *testing.B) { benchCacheRead(b, frames, frames/2) })
	b.Run("miss-fill", func(b *testing.B) { benchCacheRead(b, frames, 2*frames) })
}

// benchCacheRead reads pages [0, pages) in turn through a cache of
// frames frames: all hits when they fit, all misses at twice the frames.
func benchCacheRead(b *testing.B, frames, pages int) {
	c, v, ca := testCache(b, 1, DefaultConfig(frames))
	seedPages(b, c, v, pages)
	st, err := ca.NewStream("b", 0, sched.Interactive)
	if err != nil {
		b.Fatal(err)
	}
	got := func(d []byte, err error) {
		if err != nil || len(d) != ca.PageSize() {
			b.Fatalf("read: %d bytes, err %v", len(d), err)
		}
	}
	for i := 0; i < 4*pages; i++ { // warm: frames filled, pools grown
		st.Read(i%pages, got)
		c.Run()
	}
	b.SetBytes(int64(ca.PageSize()))
	b.ReportAllocs()
	before, fired := ca.Stats(), c.Eng.Fired()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Read(i%pages, got)
		c.Run()
	}
	b.StopTimer()
	d := ca.Stats().Delta(before)
	b.ReportMetric(float64(d.Misses)/float64(b.N), "misses/op")
	b.ReportMetric(float64(c.Eng.Fired()-fired)/float64(b.N), "events/op")
}
