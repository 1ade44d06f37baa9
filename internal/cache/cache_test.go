package cache

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/volume"
)

// testCache builds a small cluster + scheduler + volume + cache stack.
// When the test ends, whatever it left in flight is drained and the
// cluster's drain check runs (coretest.NewCluster), which holds every
// pool the cache registered.
func testCache(t testing.TB, nodes int, cfg Config) (*core.Cluster, *volume.Volume, *Cache) {
	t.Helper()
	p := core.DefaultParams(nodes)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 8
	c := coretest.NewCluster(t, p)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vcfg := volume.DefaultConfig()
	vcfg.FTL = ftl.DefaultConfig()
	v, err := volume.New(c, s, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := New(c, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Run) // runs before the cluster's check: cleanups run last-in first-out
	return c, v, ca
}

func pageData(size, seed int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(seed ^ (i * 7))
	}
	return b
}

// seedPages writes pageData(lpn) to pages [0, n) of the volume, below
// the cache, and drains.
func seedPages(t testing.TB, c *core.Cluster, v *volume.Volume, n int) {
	t.Helper()
	vs, err := v.NewStream("seed", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	for lpn := 0; lpn < n; lpn++ {
		vs.Write(lpn, pageData(v.PageSize(), lpn), func(err error) {
			if err != nil {
				t.Errorf("seed: %v", err)
			}
		})
	}
	c.Run()
}

// readPage issues one cache read and returns a copy of the data after
// the engine drains (a hit on a slab frame sees later writes, so it
// must be copied inside the callback).
func readPage(t *testing.T, c *core.Cluster, st *Stream, lpn int) []byte {
	t.Helper()
	var got []byte
	var rerr error
	st.Read(lpn, func(data []byte, err error) {
		rerr = err
		if err == nil {
			got = append([]byte(nil), data...)
		}
	})
	c.Run()
	if rerr != nil {
		t.Fatalf("read %d: %v", lpn, rerr)
	}
	if got == nil {
		t.Fatalf("read %d never completed", lpn)
	}
	return got
}

// TestCacheReadWriteRoundTrip: writes are absorbed write-back, flushed
// to flash on the Background class, and re-reads hit DRAM with the
// right data.
func TestCacheReadWriteRoundTrip(t *testing.T) {
	c, v, ca := testCache(t, 2, DefaultConfig(64))
	st, err := ca.NewStream("t", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	acked := 0
	for lpn := 0; lpn < n; lpn++ {
		st.Write(lpn, pageData(ca.PageSize(), lpn), func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			acked++
		})
	}
	c.Run()
	if acked != n {
		t.Fatalf("acked %d of %d writes", acked, n)
	}
	s := ca.Stats()
	if s.WriteAllocs != n {
		t.Fatalf("WriteAllocs = %d, want %d", s.WriteAllocs, n)
	}
	if s.Flushes != n {
		t.Fatalf("Flushes = %d, want %d (all dirty pages must drain)", s.Flushes, n)
	}
	if s.DirtyPages != 0 {
		t.Fatalf("DirtyPages = %d after drain, want 0", s.DirtyPages)
	}
	for lpn := 0; lpn < n; lpn++ {
		if got := readPage(t, c, st, lpn); !bytes.Equal(got, pageData(ca.PageSize(), lpn)) {
			t.Fatalf("lpn %d: wrong data back", lpn)
		}
	}
	s = ca.Stats()
	if s.Hits != n || s.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want %d/0 (flushed pages stay resident)", s.Hits, s.Misses, n)
	}
	// The flash copy must match too: read below the cache.
	vs, err := v.NewStream("direct", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	var flash []byte
	vs.Read(7, func(data []byte, err error) {
		if err != nil {
			t.Errorf("volume read: %v", err)
		}
		flash = append([]byte(nil), data...)
	})
	c.Run()
	if !bytes.Equal(flash, pageData(ca.PageSize(), 7)) {
		t.Fatal("flash copy diverges from cache copy after flush")
	}
}

// TestCacheMissFillsAndHits: a cold read misses into the volume, and
// the filled frame serves the next read from DRAM.
func TestCacheMissFillsAndHits(t *testing.T) {
	c, v, ca := testCache(t, 1, DefaultConfig(16))
	seedPages(t, c, v, 4)
	st, err := ca.NewStream("t", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	if got := readPage(t, c, st, 3); !bytes.Equal(got, pageData(ca.PageSize(), 3)) {
		t.Fatal("miss fill returned wrong data")
	}
	if s := ca.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after cold read: hits/misses = %d/%d, want 0/1", s.Hits, s.Misses)
	}
	if got := readPage(t, c, st, 3); !bytes.Equal(got, pageData(ca.PageSize(), 3)) {
		t.Fatal("hit returned wrong data")
	}
	if s := ca.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("after warm read: hits/misses = %d/%d, want 1/1", s.Hits, s.Misses)
	}
}

// TestCacheRangeErrors: out-of-range pages fail typed on both paths,
// and so does a stream for a node outside the cluster.
func TestCacheRangeErrors(t *testing.T) {
	c, _, ca := testCache(t, 1, DefaultConfig(8))
	st, err := ca.NewStream("t", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	var rerr, werr error
	st.Read(-1, func(_ []byte, err error) { rerr = err })
	st.Write(ca.Pages(), make([]byte, ca.PageSize()), func(err error) { werr = err })
	c.Run()
	if !errors.Is(rerr, ErrOutOfRange) || !errors.Is(werr, ErrOutOfRange) {
		t.Fatalf("out-of-range pages: read %v write %v, want ErrOutOfRange", rerr, werr)
	}
	if _, err := ca.NewStream("x", 99, sched.Interactive); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("bad node: %v, want ErrOutOfRange", err)
	}
}

// TestReservedClassesRefused: both tenant surfaces, the volume's and
// the cache's, refuse an Accel or Background stream with
// volume.ErrReservedClass.
func TestReservedClassesRefused(t *testing.T) {
	_, v, ca := testCache(t, 1, DefaultConfig(8))
	for _, class := range []sched.Class{sched.Accel, sched.Background} {
		if _, err := v.NewStream("t", class); !errors.Is(err, volume.ErrReservedClass) {
			t.Errorf("volume stream at %v: %v, want ErrReservedClass", class, err)
		}
		if _, err := ca.NewStream("t", 0, class); !errors.Is(err, volume.ErrReservedClass) {
			t.Errorf("cache stream at %v: %v, want ErrReservedClass", class, err)
		}
	}
}

// TestFillThatDoesNotInstall: a write that lands while the fill of the
// same page is in flight takes the frame, so the fill delivers its read
// and returns its context without installing; the next read hits the
// written data, and the cache passes its drain check.
func TestFillThatDoesNotInstall(t *testing.T) {
	c, v, ca := testCache(t, 1, DefaultConfig(16))
	seedPages(t, c, v, 8)
	st, err := ca.NewStream("t", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	var read []byte
	st.Read(3, func(data []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		read = append([]byte(nil), data...)
	})
	fresh := pageData(ca.PageSize(), 99)
	st.Write(3, fresh, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	c.Run()
	if !bytes.Equal(read, pageData(ca.PageSize(), 3)) {
		t.Fatal("the racing fill did not deliver the flash copy it read")
	}
	base := ca.Stats()
	if got := readPage(t, c, st, 3); !bytes.Equal(got, fresh) {
		t.Fatal("the aborted fill installed its stale read over the write")
	}
	if d := ca.Stats().Delta(base); d.Hits != 1 {
		t.Fatalf("hits = %d, want 1: the write owns the frame", d.Hits)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidationCoherence: a remote node's clean copy is dropped
// when a write becomes flash-visible, so its next read observes the
// new data.
func TestInvalidationCoherence(t *testing.T) {
	c, _, ca := testCache(t, 2, DefaultConfig(16))
	w, err := ca.NewStream("writer", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ca.NewStream("reader", 1, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	old := pageData(ca.PageSize(), 1)
	w.Write(5, old, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	c.Run()
	if got := readPage(t, c, r, 5); !bytes.Equal(got, old) {
		t.Fatal("reader missed the first version")
	}
	base := ca.Stats()

	fresh := pageData(ca.PageSize(), 2)
	w.Write(5, fresh, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	c.Run()
	d := ca.Stats().Delta(base)
	if d.InvalidationsSent == 0 {
		t.Fatal("flush sent no invalidations")
	}
	if d.InvalidationsApplied == 0 {
		t.Fatal("reader node dropped nothing despite holding a stale clean copy")
	}
	if got := readPage(t, c, r, 5); !bytes.Equal(got, fresh) {
		t.Fatal("reader observed stale data after invalidation")
	}
	if d2 := ca.Stats().Delta(base); d2.Misses == 0 {
		t.Fatal("post-invalidation read should have missed and refilled")
	}
}

// TestConcurrentWritersConverge: two nodes write the same page at the
// same time. Invalidations against dirty/in-flush copies are ignored
// (last flusher wins), but once both flushes land, every node
// converges on the flash value.
func TestConcurrentWritersConverge(t *testing.T) {
	c, v, ca := testCache(t, 2, DefaultConfig(16))
	s0, err := ca.NewStream("a", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := ca.NewStream("b", 1, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	a := pageData(ca.PageSize(), 0xA)
	b := pageData(ca.PageSize(), 0xB)
	s0.Write(9, a, func(err error) {
		if err != nil {
			t.Errorf("w0: %v", err)
		}
	})
	s1.Write(9, b, func(err error) {
		if err != nil {
			t.Errorf("w1: %v", err)
		}
	})
	c.Run()
	if s := ca.Stats(); s.InvalidationsIgnoredDirty == 0 {
		t.Fatal("expected at least one invalidation against a dirty/in-flush copy")
	}
	vs, err := v.NewStream("direct", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	var flash []byte
	vs.Read(9, func(data []byte, err error) {
		if err != nil {
			t.Errorf("volume read: %v", err)
		}
		flash = append([]byte(nil), data...)
	})
	c.Run()
	if !bytes.Equal(flash, a) && !bytes.Equal(flash, b) {
		t.Fatal("flash holds neither writer's data")
	}
	g0 := readPage(t, c, s0, 9)
	g1 := readPage(t, c, s1, 9)
	if !bytes.Equal(g0, flash) || !bytes.Equal(g1, flash) {
		t.Fatal("nodes did not converge on the flash value")
	}
}

// TestWriteThroughWhenSaturated: with every frame dirty and the flush
// pump behind, write misses fall back to write-through — and the data
// still lands intact.
func TestWriteThroughWhenSaturated(t *testing.T) {
	c, _, ca := testCache(t, 1, DefaultConfig(4))
	st, err := ca.NewStream("t", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	acked := 0
	for lpn := 0; lpn < n; lpn++ {
		st.Write(lpn, pageData(ca.PageSize(), lpn), func(err error) {
			if err != nil {
				t.Errorf("write %v", err)
			}
			acked++
		})
	}
	c.Run()
	if acked != n {
		t.Fatalf("acked %d of %d", acked, n)
	}
	s := ca.Stats()
	if s.WriteThroughs == 0 {
		t.Fatal("expected write-throughs with 4 frames and 32 burst writes")
	}
	for lpn := 0; lpn < n; lpn++ {
		if got := readPage(t, c, st, lpn); !bytes.Equal(got, pageData(ca.PageSize(), lpn)) {
			t.Fatalf("lpn %d: wrong data back", lpn)
		}
	}
}
