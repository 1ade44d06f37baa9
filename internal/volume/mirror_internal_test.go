package volume

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/sched"
)

// TestFailoverPoolAllocFree pins the mirrored-read fail-over context
// at zero steady-state allocations: one context is borrowed and
// recycled per mirrored read, on the hot read path.
func TestFailoverPoolAllocFree(t *testing.T) {
	v := &Volume{}
	v.failovers.New = v.newFailover
	// Prime the pool (the first Get binds the reusable callbacks).
	v.failovers.Put(v.failovers.Get())
	n := alloctest.Mallocs(200, func() {
		fo := v.failovers.Get()
		fo.useRep = true
		fo.rclpn = 7
		v.failovers.Put(fo)
	})
	if n != 0 {
		t.Fatalf("200 fail-over contexts allocate %d objects, want 0", n)
	}
	if out := v.failovers.Out(); out != 0 {
		t.Fatalf("%d fail-over contexts out of the pool, want 0", out)
	}
}

// TestMirroredReadsAllocateNothing pins Volume.readMirrored and its
// fail-over context on a warm 2-node mirrored volume: a read served by
// the primary with a live replica behind it, and a degraded read that
// fails over to the replica of a dead card, both through
// failover.finish, allocate nothing.
func TestMirroredReadsAllocateNothing(t *testing.T) {
	p := core.DefaultParams(2)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 8
	c := coretest.NewCluster(t, p)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mirror = true
	v, err := New(c, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := v.NewStream("t", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	// Pages on card 0, whose replicas live on node 1.
	const pages = 8
	stride := len(v.cards)
	for k := 0; k < pages; k++ {
		st.Write(k*stride, ownPage(v.PageSize(), k), func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	c.Run()
	var reads, failed int
	got := func(_ []byte, err error) {
		if err != nil {
			failed++
		}
	}
	read := func() {
		for k := 0; k < pages; k++ {
			st.Read(k*stride, got)
		}
		reads += pages
		c.Run()
	}
	for range 4 {
		read()
	}
	if n := alloctest.Mallocs(20, read); n != 0 || failed != 0 {
		t.Errorf("20 rounds of mirrored reads make %d allocations (%d failed), want 0", n, failed)
	}

	// Card 0 dies: every read fails over to its replica on node 1.
	if err := v.KillCard(0); err != nil {
		t.Fatal(err)
	}
	read()
	base, reads0 := v.degradedReads, reads
	if n := alloctest.Mallocs(20, read); n != 0 || failed != 0 {
		t.Errorf("20 rounds of degraded reads make %d allocations (%d failed), want 0", n, failed)
	}
	if d, n := v.degradedReads-base, reads-reads0; d != int64(n) {
		t.Fatalf("%d of %d degraded reads served by the replica", d, n)
	}
}
