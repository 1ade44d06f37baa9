package workload_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestMixedWritesHonourNANDOrdering(t *testing.T) {
	p := core.DefaultParams(2)
	p.Geometry.BlocksPerChip = 16
	c := coretest.NewCluster(t, p)
	for n := 0; n < 2; n++ {
		if err := c.SeedLinear(n, 128, workload.RandomPages(3)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Many mixed streams of the same class sharing append regions is
	// exactly the configuration that would trip nand.ErrOutOfOrder if
	// the write sequencer reordered log appends.
	var specs []workload.StreamSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, workload.StreamSpec{
			Name: "mix", Node: i % 2, Target: -1, Class: sched.Batch,
			Pattern: workload.Mixed, Seed: uint64(30 + i),
		})
	}
	res, err := workload.RunClosedLoop(s, c, specs, 128, 8, 48)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors (NAND ordering violated?)", res.Errors)
	}
	if want := int64(8 * 48); res.Completed != want {
		t.Fatalf("completed %d, want %d", res.Completed, want)
	}
}

// TestRunClosedLoopRejectsBadSpecs: an issuing node or a target outside
// the cluster fails the run; only -1 means the whole cluster.
func TestRunClosedLoopRejectsBadSpecs(t *testing.T) {
	c := coretest.NewCluster(t, core.DefaultParams(2))
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []workload.StreamSpec{{Node: 2, Target: -1}, {Node: -1, Target: 0}, {Node: 0, Target: 2}, {Node: 0, Target: -2}} {
		if _, err := workload.RunClosedLoop(s, c, []workload.StreamSpec{sp}, 16, 1, 1); err == nil {
			t.Errorf("node %d, target %d: accepted", sp.Node, sp.Target)
		}
	}
}
