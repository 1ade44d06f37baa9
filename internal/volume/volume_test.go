package volume_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/ftl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
)

// testVolume builds a small single-purpose cluster + scheduler +
// volume stack.
func testVolume(t *testing.T, nodes int, fcfg ftl.Config) (*core.Cluster, *sched.Scheduler, *volume.Volume) {
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
	vcfg.FTL = fcfg
	v, err := volume.New(c, s, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, s, v
}

func pageData(size, seed int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(seed ^ (i * 7))
	}
	return b
}

// TestVolumeReadWriteBack: logical pages written through the stack
// (volume -> FTL -> scheduler -> batched host path -> flash) read back
// intact, and the scheduler saw every flash op.
func TestVolumeReadWriteBack(t *testing.T) {
	c, s, v := testVolume(t, 1, ftl.DefaultConfig())
	st, err := v.NewStream("t", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	werrs := 0
	for lpn := 0; lpn < n; lpn++ {
		st.Write(lpn, pageData(v.PageSize(), lpn), func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
				werrs++
			}
		})
	}
	c.Run()
	if werrs > 0 {
		t.Fatalf("%d write errors", werrs)
	}
	got := make([][]byte, n)
	for lpn := 0; lpn < n; lpn++ {
		lpn := lpn
		st.Read(lpn, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read %d: %v", lpn, err)
			}
			got[lpn] = data
		})
	}
	c.Run()
	for lpn := 0; lpn < n; lpn++ {
		if !bytes.Equal(got[lpn], pageData(v.PageSize(), lpn)) {
			t.Fatalf("lpn %d: wrong data", lpn)
		}
	}
	if snap := s.Snapshot(); snap.TotalOps < int64(2*n) {
		t.Fatalf("scheduler saw %d ops, want >= %d (volume bypassing scheduler?)", snap.TotalOps, 2*n)
	}
	if v.Stats().HostWrites != int64(n) {
		t.Fatalf("ftl host writes = %d, want %d", v.Stats().HostWrites, n)
	}
}

// TestVolumeChurnRunsGC: sustained overwrites must trigger garbage
// collection whose relocation traffic flows through the scheduler's
// Background class, while every logical page stays intact.
func TestVolumeChurnRunsGC(t *testing.T) {
	fcfg := ftl.Config{OverProvision: 0.25, GCLowWater: 2, WearLevelEvery: 0, GCPipeline: 4}
	c, s, v := testVolume(t, 1, fcfg)
	st, err := v.NewStream("churn", sched.Batch)
	if err != nil {
		t.Fatal(err)
	}
	pages := v.Pages()
	version := make([]int, pages)
	write := func(lpn, ver int) {
		version[lpn] = ver
		st.Write(lpn, pageData(v.PageSize(), lpn*131+ver), func(err error) {
			if err != nil {
				t.Errorf("write lpn %d: %v", lpn, err)
			}
		})
	}
	for lpn := 0; lpn < pages; lpn++ {
		write(lpn, 0)
	}
	c.Run()
	rng := sim.NewRNG(5)
	round := 0
	for v.Stats().GCMoves == 0 && round < 20 {
		round++
		for i := 0; i < pages/2; i++ {
			write(rng.Intn(pages), round)
		}
		c.Run()
	}
	stats := v.Stats()
	if stats.GCMoves == 0 || stats.FlashErases == 0 {
		t.Fatalf("no GC after %d churn rounds: %+v", round, stats)
	}
	if stats.GCAborts != 0 {
		t.Fatalf("%d GC aborts under normal churn", stats.GCAborts)
	}
	// Background relocation went through the scheduler.
	bgOps := int64(0)
	for _, cs := range s.Snapshot().Classes {
		if cs.Class == "background" {
			bgOps = cs.Ops
		}
	}
	if bgOps == 0 {
		t.Fatal("GC ran but no Background-class ops reached the scheduler")
	}
	// Every page reads back at its latest version.
	bad := 0
	for lpn := 0; lpn < pages; lpn++ {
		lpn := lpn
		st.Read(lpn, func(data []byte, err error) {
			if err != nil || !bytes.Equal(data, pageData(v.PageSize(), lpn*131+version[lpn])) {
				bad++
			}
		})
	}
	c.Run()
	if bad > 0 {
		t.Fatalf("%d pages corrupted across GC", bad)
	}
}

// TestVolumeDeterminism: identical runs produce identical scheduler
// snapshots and identical final virtual clocks.
func TestVolumeDeterminism(t *testing.T) {
	run := func() (sched.Snapshot, sim.Time) {
		c, s, v := testVolume(t, 2, ftl.DefaultConfig())
		st, err := v.NewStream("d", sched.Interactive)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(9)
		for i := 0; i < 200; i++ {
			st.Write(rng.Intn(v.Pages()/2), pageData(v.PageSize(), i), func(err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
			})
		}
		c.Run()
		return s.Snapshot(), c.Eng.Now()
	}
	s1, t1 := run()
	s2, t2 := run()
	if t1 != t2 {
		t.Fatalf("virtual end times differ: %v vs %v", t1, t2)
	}
	if s1.TotalOps != s2.TotalOps || s1.ElapsedMs != s2.ElapsedMs {
		t.Fatalf("snapshots differ: %+v vs %+v", s1, s2)
	}
}

// TestVolumeRangeErrors: out-of-range logical pages fail cleanly.
func TestVolumeRangeErrors(t *testing.T) {
	_, _, v := testVolume(t, 1, ftl.DefaultConfig())
	st, err := v.NewStream("e", sched.Realtime)
	if err != nil {
		t.Fatal(err)
	}
	var rerr error
	st.Read(v.Pages(), func(_ []byte, err error) { rerr = err })
	if rerr == nil {
		t.Fatal("out-of-range read accepted")
	}
	var werr error
	st.Write(-1, make([]byte, v.PageSize()), func(err error) { werr = err })
	if werr == nil {
		t.Fatal("out-of-range write accepted")
	}
	if _, err := v.NewStream("gc", sched.Background); err == nil {
		t.Fatal("tenant stream on Background class accepted")
	}
}

// TestTrimCountedInStats: trims are host-side metadata updates with no
// flash op to admit, but they must be visible in the volume's counters
// and their windowed deltas (they change GC economics).
func TestTrimCountedInStats(t *testing.T) {
	c, s, v := testVolume(t, 1, ftl.DefaultConfig())
	st, err := v.NewStream("trim", sched.Batch)
	if err != nil {
		t.Fatal(err)
	}
	for lpn := 0; lpn < 4; lpn++ {
		st.Write(lpn, pageData(v.PageSize(), lpn), func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	}
	c.Run()
	base := v.Stats()
	opsBefore := s.Snapshot().TotalOps
	if err := st.Trim(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Trim(2); err != nil {
		t.Fatal(err)
	}
	// Trimming an already-unmapped page is still a trim command.
	if err := st.Trim(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Trim(v.Pages()); err == nil {
		t.Fatal("out-of-range trim accepted")
	}
	d := v.Stats().Delta(base)
	if d.HostTrims != 3 {
		t.Fatalf("trim delta = %d, want 3", d.HostTrims)
	}
	if v.Stats().HostTrims != 3 {
		t.Fatalf("total trims = %d, want 3", v.Stats().HostTrims)
	}
	// No phantom flash traffic was admitted for the metadata ops.
	c.Run()
	if got := s.Snapshot().TotalOps; got != opsBefore {
		t.Fatalf("trims admitted %d scheduler ops", got-opsBefore)
	}
	// The trimmed page reads as unmapped; the untrimmed neighbor is intact.
	var terr error
	st.Read(1, func(_ []byte, err error) { terr = err })
	var data3 []byte
	st.Read(3, func(d []byte, err error) {
		if err != nil {
			t.Errorf("read 3: %v", err)
		}
		data3 = d
	})
	c.Run()
	if terr == nil {
		t.Fatal("trimmed page still readable")
	}
	if !bytes.Equal(data3, pageData(v.PageSize(), 3)) {
		t.Fatal("untrimmed page corrupted by trim")
	}
}

// TestLocateAndPhysMap: the physical-address query resolves to the
// real location (reading the physical page raw returns the logical
// content), PhysMap agrees with Phys, and an overwrite moves the
// mapping — the documented staleness.
func TestLocateAndPhysMap(t *testing.T) {
	c, _, v := testVolume(t, 2, ftl.DefaultConfig())
	st, err := v.NewStream("loc", sched.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	n := 16
	for lpn := 0; lpn < n; lpn++ {
		st.Write(lpn, pageData(v.PageSize(), lpn), func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	}
	c.Run()
	addrs, err := v.PhysMap(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for lpn := 0; lpn < n; lpn++ {
		a, err := v.Phys(lpn)
		if err != nil {
			t.Fatal(err)
		}
		if a != addrs[lpn] {
			t.Fatalf("lpn %d: Phys %v != PhysMap %v", lpn, a, addrs[lpn])
		}
		var raw []byte
		c.Node(a.Node).ISPReadDirect(a, func(d []byte, err error) {
			if err != nil {
				t.Errorf("raw read: %v", err)
			}
			raw = d
		})
		c.Run()
		if !bytes.Equal(raw[:v.PageSize()], pageData(v.PageSize(), lpn)) {
			t.Fatalf("lpn %d: physical page %v holds wrong data", lpn, a)
		}
	}
	// Unmapped pages and bad ranges fail cleanly.
	if _, err := v.Phys(n); err == nil {
		t.Fatal("unmapped Phys accepted")
	}
	if _, err := v.PhysMap(0, v.Pages()+1); err == nil {
		t.Fatal("out-of-range PhysMap accepted")
	}
	// An overwrite remaps: the snapshot goes stale.
	before := addrs[0]
	st.Write(0, pageData(v.PageSize(), 99), func(err error) {
		if err != nil {
			t.Errorf("overwrite: %v", err)
		}
	})
	c.Run()
	after, err := v.Phys(0)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("overwrite did not move the physical mapping")
	}
}
