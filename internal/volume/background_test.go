package volume_test

import (
	"bytes"
	"testing"

	"repro/internal/ftl"
)

// TestBackgroundReadWriteRoundTrip: WriteBackground/ReadBackground
// move pages through the scheduler's Background class (TagFlush) and
// round-trip data intact even while the Background token budget is
// throttled, and TrimBackground releases the mapping.
func TestBackgroundReadWriteRoundTrip(t *testing.T) {
	c, _, v := testVolume(t, 2, ftl.DefaultConfig())
	// Raise the Background budget so the flush traffic drains: this is
	// exactly what the cache's dirty-pressure feedback does.
	v.UrgencySource(0)(1)
	v.UrgencySource(1)(1)
	const n = 32
	werrs := 0
	for lpn := 0; lpn < n; lpn++ {
		v.WriteBackground(lpn, pageData(v.PageSize(), lpn), func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
				werrs++
			}
		})
	}
	c.Run()
	if werrs > 0 {
		t.Fatalf("%d background write errors", werrs)
	}
	got := make([][]byte, n)
	for lpn := 0; lpn < n; lpn++ {
		lpn := lpn
		v.ReadBackground(lpn, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read %d: %v", lpn, err)
			}
			got[lpn] = data
		})
	}
	c.Run()
	for lpn := 0; lpn < n; lpn++ {
		if !bytes.Equal(got[lpn], pageData(v.PageSize(), lpn)) {
			t.Fatalf("lpn %d: wrong data back", lpn)
		}
	}
	if err := v.TrimBackground(0); err != nil {
		t.Fatalf("trim: %v", err)
	}
	if d := v.Stats(); d.HostTrims != 1 {
		t.Fatalf("trims = %d, want 1", d.HostTrims)
	}
}

// TestBackgroundRangeAndUrgencyClamp: out-of-range background I/O
// fails typed. (The urgency clamp is the scheduler's: sched's
// TestUrgencySourcesFoldWithMax.)
func TestBackgroundRangeAndUrgencyClamp(t *testing.T) {
	_, _, v := testVolume(t, 1, ftl.DefaultConfig())
	var rerr, werr error
	v.ReadBackground(-1, func(_ []byte, err error) { rerr = err })
	v.WriteBackground(v.Pages(), make([]byte, v.PageSize()), func(err error) { werr = err })
	if rerr == nil || werr == nil {
		t.Fatalf("out-of-range background I/O accepted: read %v write %v", rerr, werr)
	}
	if err := v.TrimBackground(v.Pages()); err == nil {
		t.Fatal("out-of-range trim accepted")
	}
}

// TestAuxUrgencyUnblocksBackground: with zero urgency the Background
// class is token-starved; raising the aux floor lets a backlog of
// flush writes complete. This pins the feedback loop the cache's
// flush pump depends on.
func TestAuxUrgencyUnblocksBackground(t *testing.T) {
	c, _, v := testVolume(t, 1, ftl.DefaultConfig())
	const n = 48
	done := 0
	for lpn := 0; lpn < n; lpn++ {
		v.WriteBackground(lpn, pageData(v.PageSize(), lpn), func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			done++
		})
	}
	aux := v.UrgencySource(0)
	aux(1)
	c.Run()
	if done != n {
		t.Fatalf("completed %d of %d background writes with aux urgency raised", done, n)
	}
	// Clearing the floor must be accepted (back to GC-driven urgency).
	aux(0)
	c.Run()
}
