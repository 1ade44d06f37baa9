package rfs

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestPageOpsAllocate pins what a page operation on a cluster file
// system allocates: a read nothing, an append or an overwrite exactly
// its page image (BenchmarkAppendPage's floor), a cleaner move nothing.
// Every op rides one pooled record whose continuations were bound when
// it was made. The cluster runs without the image guard, whose
// checksums are not the file system's.
func TestPageOpsAllocate(t *testing.T) {
	c, err := core.NewCluster(clusterParams(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs, _, err := NewClusterFS(c, s, ClusterConfig{}, Config{CleanLowWater: 4})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("pin")
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, fs.PageSize())
	var opErr error
	ack := func(err error) {
		if err != nil {
			opErr = err
		}
	}
	read := func(_ []byte, err error) { ack(err) }
	for i := 0; i < 64; i++ { // pools and rings reach their size
		f.AppendPage(page, ack)
		c.Run()
	}
	i := 0
	pins := []struct {
		name string
		want float64
		op   func()
	}{
		{"AppendPage", 1, func() { f.AppendPage(page, ack) }},
		{"WritePage", 1, func() { f.WritePage(i%f.Pages(), page, ack) }},
		{"ReadPage", 0, func() { f.ReadPage(i%f.Pages(), read) }},
		{"cleaner move", 0, func() {
			// One relocation of a live page, outside any clean pass, so
			// the run measures the move alone.
			ppn := fs.inodes[f.ino].pages[i%f.Pages()]
			fs.move(fs.segOf(ppn), ppn%fs.lay.PagesPerSeg)
		}},
	}
	for _, p := range pins {
		n := testing.AllocsPerRun(50, func() {
			p.op()
			i++
			c.Run()
		})
		if opErr != nil {
			t.Fatalf("%s: %v", p.name, opErr)
		}
		if n != p.want {
			t.Errorf("%s costs %v allocations, want %v", p.name, n, p.want)
		}
	}
	if fs.CleanMoves != 51 {
		t.Fatalf("%d cleaner moves, want 51", fs.CleanMoves)
	}
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if out := fs.PoolOut(); out != 0 {
		t.Fatalf("%d page ops out of the pool at drain", out)
	}
}

// TestCleanMoveAllocatesNothing: a cleaner move allocates nothing — its
// read delivers the image the victim page stores, and the move
// programs that image back — and neither does the queue writes wait in
// behind a clean, which keeps its storage from one clean to the next:
// an overwrite costs its page image and nothing else, though every
// overwrite here that finds no clean running starts one and waits
// behind it. The twin of ftl's TestRelocationAllocatesOnePage and
// TestOverwriteUnderGCAllocatesNothing.
func TestCleanMoveAllocatesNothing(t *testing.T) {
	c, fs, f, collect := cleanRig(t)
	// One P, as in testing.AllocsPerRun: with more, the runtime may
	// start an OS thread when ReadMemStats restarts the world, and a
	// thread's records are mallocs the window would count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	moves := fs.CleanMoves
	for i := 0; i < 8; i++ {
		collect()
	}
	runtime.ReadMemStats(&m1)
	n := float64(fs.CleanMoves - moves)
	if n < 8*float64(fs.lay.PagesPerSeg) {
		t.Fatalf("%.0f moves in 8 cleans of all-valid segments", n)
	}
	// A quarter of a page, not zero: the race detector's runtime
	// allocates some tens of bytes per move on its own.
	if got := float64(m1.TotalAlloc-m0.TotalAlloc) / n; got >= float64(fs.PageSize())/4 {
		t.Errorf("a cleaner move allocates %.0f B: it pays for a page", got)
	}
	if got := float64(m1.Mallocs-m0.Mallocs) / n; got >= 0.1 {
		t.Errorf("a cleaner move makes %.2f allocations, want 0", got)
	}

	page := make([]byte, fs.PageSize())
	ack := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	burst := func() {
		for i := 0; i < 8; i++ {
			f.WritePage(next%64, page, ack)
			next++
		}
		c.Run()
	}
	for i := 0; i < 32; i++ { // into steady state: pools, rings and the queue at their size
		burst()
	}
	cleans := fs.Cleaner.Passes
	if allocs := testing.AllocsPerRun(64, burst); allocs != 8 {
		t.Errorf("a burst of eight overwrites under cleaning allocates %.2f times, want 8 (their images)", allocs)
	}
	if fs.Cleaner.Passes-cleans < 64 {
		t.Fatalf("test premise: %d cleans in 64 bursts", fs.Cleaner.Passes-cleans)
	}
}
