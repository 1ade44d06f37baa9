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
