package ispvol_test

// Fixtures for queries over files of the cluster RFS: the Figure 8
// pipeline end-to-end (file -> cluster-wide physical-address query ->
// scheduler-admitted engine scan -> merge). The queries themselves are
// cells of TestQueryMatrix.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
)

func fileParams(nodes int) core.Params {
	p := core.DefaultParams(nodes)
	p.Geometry.ChipsPerBus = 2
	p.Geometry.BlocksPerChip = 2
	p.Geometry.PagesPerBlock = 16
	return p
}

func newFileSystem(t testing.TB, nodes int) (*core.Cluster, *sched.Scheduler, *rfs.FS, *ispvol.System) {
	t.Helper()
	return newFileSystemOn(t, fileParams(nodes))
}

func newFileSystemOn(t testing.TB, p core.Params) (*core.Cluster, *sched.Scheduler, *rfs.FS, *ispvol.System) {
	t.Helper()
	c := coretest.NewCluster(t, p)
	scfg := sched.DefaultConfig()
	scfg.MaxInflight = 16
	s, err := sched.New(c, scfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, _, err := rfs.NewClusterFS(c, s, rfs.ClusterConfig{}, rfs.Config{CleanLowWater: 4})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ispvol.New(c, s, nil, ispvol.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c, s, fs, sys
}

// seedFile appends n generated pages to a fresh file.
func seedFile(t testing.TB, c *core.Cluster, fs *rfs.FS, name string, n int, gen func(idx int, page []byte)) *rfs.File {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	ps := f.PageSize()
	var firstErr error
	next := 0
	var issue func()
	issue = func() {
		if next >= n {
			return
		}
		idx := next
		next++
		buf := make([]byte, ps)
		gen(idx, buf)
		f.AppendPage(buf, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("seed %s page %d: %w", name, idx, err)
			}
			issue()
		})
	}
	for i := 0; i < 32 && i < n; i++ {
		issue()
	}
	c.Run()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	return f
}
