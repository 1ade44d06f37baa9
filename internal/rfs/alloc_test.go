package rfs

import (
	"slices"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/core"
	"repro/internal/sched"
)

// TestPageOpsAllocate pins what a page operation on a cluster file
// system allocates: a read nothing, an append or an overwrite exactly
// its page image (BenchmarkAppendPage's floor). Every op rides one
// pooled record of the page log whose continuations were bound when it
// was made. (A cleaner move, nothing, is TestCleanMoveAllocatesNothing's
// pin on the same stack.) The cluster runs without the image guard,
// whose checksums are not the file system's.
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
	// Each op is counted exactly, over one window after a warm-up: the
	// first reads grow the read path's pools once (13 allocations over
	// the first 50), none after. An append also grows the file's page
	// list now and then, one allocation each time its capacity moves;
	// the list is grown first, so that no window holds a growth, as
	// every window must count alike (the race detector's least of
	// three).
	nd := fs.inodes[f.ino]
	nd.pages = slices.Grow(nd.pages, 1000)
	pins := []struct {
		name string
		per  uint64
		op   func()
	}{
		{"AppendPage", 1, func() { f.AppendPage(page, ack) }},
		{"WritePage", 1, func() { f.WritePage(i%f.Pages(), page, ack) }},
		{"ReadPage", 0, func() { f.ReadPage(i%f.Pages(), read) }},
	}
	for _, p := range pins {
		run := func() {
			p.op()
			i++
			c.Run()
		}
		for range 50 { // the op's pools, and the cleaning overwrites start, reach their size
			run()
		}
		n := alloctest.Mallocs(50, run)
		if opErr != nil {
			t.Fatalf("%s: %v", p.name, opErr)
		}
		if n != 50*p.per {
			t.Errorf("50 %s calls make %d allocations, want %d", p.name, n, 50*p.per)
		}
	}
	if err := fs.Log.Check(); err != nil {
		t.Fatal(err)
	}
}
