package rfs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
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
	// WritePage and ReadPage are counted exactly, over one window after
	// a warm-up: the first reads grow the read path's pools once (13
	// allocations over the first 50), none after. AppendPage also grows
	// the file's page list now and then, so it is an average that
	// truncates (testing.AllocsPerRun).
	pins := []struct {
		name  string
		want  float64
		exact bool
		op    func()
	}{
		{"AppendPage", 1, false, func() { f.AppendPage(page, ack) }},
		{"WritePage", 1, true, func() { f.WritePage(i%f.Pages(), page, ack) }},
		{"ReadPage", 0, true, func() { f.ReadPage(i%f.Pages(), read) }},
	}
	for _, p := range pins {
		run := func() {
			p.op()
			i++
			c.Run()
		}
		var n float64
		if p.exact {
			for range 50 { // the op's pools, and the cleaning overwrites start, reach their size
				run()
			}
			n = float64(coretest.Mallocs(50, run)) / 50
		} else {
			n = testing.AllocsPerRun(50, run)
		}
		if opErr != nil {
			t.Fatalf("%s: %v", p.name, opErr)
		}
		if n != p.want {
			t.Errorf("%s costs %v allocations, want %v", p.name, n, p.want)
		}
	}
	if err := fs.Log.Check(); err != nil {
		t.Fatal(err)
	}
}
