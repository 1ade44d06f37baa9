package cache

import (
	"bytes"
	"testing"

	"repro/internal/sched"
)

// TestWriteSnapshotsCallerBuffer: cache.Stream.Write is a public entry,
// so it copies the caller's buffer before it returns — into a frame
// when it absorbs the write, through the volume when every frame is
// busy and it writes through. A caller that refills one scratch buffer
// for every write, scribbling on it right after each call and again in
// each callback, must find every page right on flash once the dirty
// frames have drained.
func TestWriteSnapshotsCallerBuffer(t *testing.T) {
	// Four frames for a burst of 48 writes: most of them write through.
	c, v, ca := testCache(t, 1, DefaultConfig(4))
	st, err := ca.NewStream("w", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	ps := ca.PageSize()
	scratch := make([]byte, ps)
	for lpn := 0; lpn < n; lpn++ {
		copy(scratch, pageData(ps, lpn))
		st.Write(lpn, scratch, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			for i := range scratch {
				scratch[i] = 0xee
			}
		})
		for i := range scratch {
			scratch[i] = 0xff
		}
		if lpn%16 == 15 {
			c.Run()
		}
	}
	c.Run()
	s := ca.Stats()
	if s.WriteThroughs == 0 || s.Flushes == 0 {
		t.Fatalf("test premise: %d write-throughs, %d flushes; want both paths taken", s.WriteThroughs, s.Flushes)
	}
	// Read flash itself, under the cache.
	vst, err := v.NewStream("check", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	for lpn := 0; lpn < n; lpn++ {
		lpn := lpn
		vst.Read(lpn, func(d []byte, err error) {
			if err != nil || !bytes.Equal(d, pageData(ps, lpn)) {
				t.Errorf("lpn %d on flash: err %v; the caller's scribbling got through", lpn, err)
			}
		})
	}
	c.Run()
}

// TestFillSharesFlashImage: a fill keeps the image flash delivered as
// the frame's view, so a hit returns that very array. Eviction and
// invalidation drop the view with the frame, and a write moves the
// frame to the slab without touching the image. Under the image guard,
// a write through the view would also panic at the next read of the
// page or at the test's end.
func TestFillSharesFlashImage(t *testing.T) {
	// One frame: every miss evicts whatever the frame holds.
	c, v, ca := testCache(t, 1, DefaultConfig(1))
	nc := ca.nodes[0]
	ps := ca.PageSize()
	seedPages(t, c, v, 8)
	st, err := ca.NewStream("t", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	read := func(lpn int) []byte {
		var got []byte
		st.Read(lpn, func(d []byte, err error) {
			if err != nil {
				t.Fatalf("read %d: %v", lpn, err)
			}
			got = d
		})
		c.Run()
		return got
	}
	filled := read(3)
	slot := nc.index[3]
	hit := read(3)
	if s := ca.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", s.Hits, s.Misses)
	}
	if &hit[0] != &filled[0] || nc.view[slot] == nil {
		t.Fatal("the hit did not return the image the fill delivered")
	}

	// A miss on page 4 evicts page 3's frame; its view goes with it
	// before page 4's fill lands.
	st.Read(4, func([]byte, error) {})
	if _, ok := nc.index[3]; ok || nc.view[slot] != nil {
		t.Fatalf("evicted frame: resident %v, view kept %v", ok, nc.view[slot] != nil)
	}
	c.Run()
	if nc.view[slot] == nil {
		t.Fatal("page 4's fill left no view")
	}
	nc.applyInv(4)
	if nc.view[slot] != nil {
		t.Fatal("invalidated frame kept its view")
	}

	// A write to a viewed frame goes to the slab; the image is untouched.
	if !bytes.Equal(read(3), pageData(ps, 3)) {
		t.Fatal("refill of page 3 returned wrong data")
	}
	fresh := pageData(ps, 0x5a)
	st.Write(3, fresh, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	if nc.view[slot] != nil {
		t.Fatal("written frame kept its view")
	}
	if !bytes.Equal(filled, pageData(ps, 3)) {
		t.Fatal("the write reached the image an earlier read delivered")
	}
	if got := read(3); !bytes.Equal(got, fresh) {
		t.Fatal("hit after the write returned stale bytes")
	}
	vs, err := v.NewStream("check", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	vs.Read(3, func(d []byte, err error) {
		if err != nil || !bytes.Equal(d, fresh) {
			t.Errorf("page 3 on flash after the flush: err %v, written bytes %v", err, bytes.Equal(d, fresh))
		}
	})
	c.Run()
}

// TestWriteToDeadFrameMisses pins why Stream.Write has no case for a
// dead frame: an invalidation that lands while a hit is in flight
// unindexes the frame before it marks it dead, so a write to the same
// page takes the miss path into another frame, and the in-flight hit
// still delivers the bytes it was pinned to.
func TestWriteToDeadFrameMisses(t *testing.T) {
	c, v, ca := testCache(t, 1, DefaultConfig(4))
	nc := ca.nodes[0]
	ps := ca.PageSize()
	seedPages(t, c, v, 8)
	st, err := ca.NewStream("t", 0, sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	readPage(t, c, st, 6)
	slot := nc.index[6]
	var hit []byte
	st.Read(6, func(d []byte, err error) {
		if err != nil {
			t.Errorf("hit: %v", err)
		}
		hit = append([]byte(nil), d...)
	})
	nc.applyInv(6)
	if e := nc.entries[slot]; e.state != stDead || e.pins != 1 {
		t.Fatalf("test premise: frame state %d pins %d, want dead with the hit's pin", e.state, e.pins)
	}
	base := ca.Stats()
	fresh := pageData(ps, 0x66)
	st.Write(6, fresh, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	if d := ca.Stats().Delta(base); d.WriteHits != 0 || d.WriteAllocs != 1 {
		t.Fatalf("write hits/allocs = %d/%d, want the miss path (0/1)", d.WriteHits, d.WriteAllocs)
	}
	if nc.index[6] == slot {
		t.Fatal("the write took the dead frame")
	}
	c.Run()
	if !bytes.Equal(hit, pageData(ps, 6)) {
		t.Fatal("the in-flight hit did not deliver the pre-invalidation bytes")
	}
	if nc.entries[slot].state != stEmpty {
		t.Fatalf("dead frame not freed at unpin: state %d", nc.entries[slot].state)
	}
	if got := readPage(t, c, st, 6); !bytes.Equal(got, fresh) {
		t.Fatal("read after the write returned stale bytes")
	}
}
