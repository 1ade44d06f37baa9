package rfs_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestStackCheckNamesALeakedPool: the stack's drain check passes on a
// drained file-system stack, and fails, naming the pool, once one page
// op is taken from the file system's pool and never returned.
func TestStackCheckNamesALeakedPool(t *testing.T) {
	p := core.DefaultParams(2)
	p.Geometry.BlocksPerChip = 4
	p.Geometry.PagesPerBlock = 8
	rcfg := rfs.DefaultConfig()
	st, err := workload.Build(workload.StackSpec{Params: p, Sched: sched.DefaultConfig(), RFS: &rcfg})
	if err != nil {
		t.Fatal(err)
	}
	f, err := st.FS.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SeedFile(f.AppendPage, 64, workload.RandomPages(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Check(); err != nil {
		t.Fatalf("a drained stack fails its check: %v", err)
	}
	st.FS.LeakPageOp()
	if err := st.Check(); err == nil || !strings.Contains(err.Error(), "rfs page ops") {
		t.Fatalf("a leaked page op: check says %v", err)
	}
}
