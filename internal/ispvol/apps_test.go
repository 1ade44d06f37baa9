package ispvol_test

// Tests for the migrating in-store graph traversal, cross-validated
// against the in-memory reference and the host-centric traversal.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/accel/graph"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/ispvol"
	"repro/internal/nand"
	"repro/internal/sched"
	"repro/internal/volume"
	"repro/internal/workload"
)

// walkMigrate runs one migrating traversal to completion.
func walkMigrate(sys *ispvol.System, origin int, g *graph.Graph, cfg graph.TraverseConfig) (*ispvol.WalkResult, error) {
	return ispvol.Sync(sys, func(done func(*ispvol.WalkResult, error)) {
		sys.WalkMigrate(origin, g, cfg, done)
	})
}

// walkFixture stores a graph in volume pages [0, V) and returns the
// stack plus the stored graph.
func walkFixture(t *testing.T, nodes int, gcfg graph.Config) (*core.Cluster, *volume.Volume, *ispvol.System, *graph.Graph) {
	t.Helper()
	ps := core.DefaultParams(1).Geometry.PageSize
	adj := graph.GenAdjacency(gcfg, ps)
	base := workload.RandomPages(3)
	fill := func(idx int, page []byte) {
		if idx < gcfg.Vertices {
			enc, err := graph.EncodePage(adj[idx], ps)
			if err != nil {
				panic(err)
			}
			copy(page, enc)
		} else {
			base(idx, page)
		}
	}
	c, _, v, sys := testSystem(t, nodes, ispvol.DefaultConfig(), fill)
	if gcfg.Vertices > v.Pages() {
		t.Fatalf("%d vertices exceed the %d-page volume", gcfg.Vertices, v.Pages())
	}
	addrs, err := v.PhysMap(0, gcfg.Vertices)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.NewStored(c, gcfg, adj, addrs)
	if err != nil {
		t.Fatal(err)
	}
	return c, v, sys, g
}

// TestWalkMigrateMatchesReference: the migrating walk must replay
// exactly the in-memory reference sequence, per walker, with the
// walker state (checksum + RNG) surviving every fabric hop.
func TestWalkMigrateMatchesReference(t *testing.T) {
	gcfg := graph.Config{Vertices: 150, AvgDegree: 6, Seed: 7}
	_, _, sys, g := walkFixture(t, 3, gcfg)
	cfg := graph.TraverseConfig{Start: 4, Steps: 50, Seed: 13, Walkers: 3}
	res, err := walkMigrate(sys, 0, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != int64(cfg.Steps*cfg.Walkers) {
		t.Fatalf("steps %d, want %d", res.Steps, cfg.Steps*cfg.Walkers)
	}
	for w := 0; w < cfg.Walkers; w++ {
		if want := graph.ReferenceWalkWalker(g, cfg, w); res.VisitSums[w] != want {
			t.Fatalf("walker %d checksum %x != reference %x", w, res.VisitSums[w], want)
		}
	}
	if res.VisitSum != graph.CombineVisitSums(res.VisitSums) {
		t.Fatal("aggregate checksum mismatch")
	}
	// A volume-striped graph on 3 nodes must actually migrate.
	if res.Migrations == 0 {
		t.Fatal("walk never migrated between nodes")
	}
}

// TestWalkMigrateMatchesHostTraversal: the migrating arm and the
// host-centric graph.Traverse visit identical vertex sequences over
// the same stored graph.
func TestWalkMigrateMatchesHostTraversal(t *testing.T) {
	gcfg := graph.Config{Vertices: 120, AvgDegree: 5, Seed: 19}
	c, _, sys, g := walkFixture(t, 2, gcfg)
	cfg := graph.TraverseConfig{Start: 2, Steps: 40, Seed: 23, Walkers: 2, Mode: graph.ModeHRHF}
	mig, err := walkMigrate(sys, 0, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	home, err := graph.Traverse(c, 0, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mig.VisitSum != home.VisitSum {
		t.Fatalf("migrating walk %x != home-node walk %x", mig.VisitSum, home.VisitSum)
	}
}

// TestWalkMigrateFailingRead: a walker whose adjacency read fails
// must fail the traversal with walker context, not truncate it, and
// the device's sentinel must survive the trip back to the origin. The
// stack is left unseeded, so every adjacency read hits unwritten
// flash and fails at the device.
func TestWalkMigrateFailingRead(t *testing.T) {
	p := core.DefaultParams(2)
	p.Geometry.BlocksPerChip = 4
	p.Geometry.PagesPerBlock = 8
	c := coretest.NewCluster(t, p)
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v, err := volume.New(c, s, volume.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ispvol.New(c, s, v, ispvol.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gcfg := graph.Config{Vertices: 30, AvgDegree: 4, Seed: 5}
	adj := graph.GenAdjacency(gcfg, c.Params.PageSize())
	addrs := make([]core.PageAddr, gcfg.Vertices)
	for vx := range addrs {
		addrs[vx] = core.LinearPage(c.Params, 1, vx)
	}
	bad, err := graph.NewStored(c, gcfg, adj, addrs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = walkMigrate(sys, 0, bad, graph.TraverseConfig{Start: 1, Steps: 20, Seed: 3, Walkers: 2})
	if err == nil {
		t.Fatal("failing reads reported success")
	}
	if !strings.Contains(err.Error(), "walker") {
		t.Fatalf("error lost walker context: %v", err)
	}
	if !errors.Is(err, nand.ErrReadFree) {
		t.Fatalf("error lost its sentinel across the fabric: %v", err)
	}
}
