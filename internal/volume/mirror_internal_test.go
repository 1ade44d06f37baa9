package volume

import "testing"

// TestFailoverPoolAllocFree pins the mirrored-read fail-over context
// at zero steady-state allocations: one context is borrowed and
// recycled per mirrored read, on the hot read path.
func TestFailoverPoolAllocFree(t *testing.T) {
	v := &Volume{}
	v.failovers.New = v.newFailover
	// Prime the pool (the first Get binds the reusable callbacks).
	v.failovers.Put(v.failovers.Get())
	avg := testing.AllocsPerRun(200, func() {
		fo := v.failovers.Get()
		fo.useRep = true
		fo.rclpn = 7
		v.failovers.Put(fo)
	})
	if avg != 0 {
		t.Fatalf("failover pool allocates %.1f per read, want 0", avg)
	}
	if out := v.failovers.Out(); out != 0 {
		t.Fatalf("%d fail-over contexts out of the pool, want 0", out)
	}
}
