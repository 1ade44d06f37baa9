package graph

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestMixedVisitSumMatchesReference: ModeMixed must walk the same
// vertex sequence as every other mode under the same seed. Regression:
// path selection (flash-or-DRAM) used to draw from the SAME RNG as
// neighbor selection, so Mixed diverged and the VisitSum
// cross-validation the checksum exists for could never pass.
func TestMixedVisitSumMatchesReference(t *testing.T) {
	cfg := TraverseConfig{Start: 4, Steps: 80, Mode: ModeMixed, PctFlash: 50, Seed: 11, Walkers: 1}
	c := graphCluster(t, 4)
	g, err := Build(c, Config{Vertices: 250, AvgDegree: 7, Seed: 9, HomeNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Traverse(c, 0, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := ReferenceWalk(g, cfg); res.VisitSum != want {
		t.Fatalf("Mixed checksum %x != reference %x: path choice leaked into the walk RNG", res.VisitSum, want)
	}
	// And it matches an ISP-F walk of the same config directly.
	c2 := graphCluster(t, 4)
	g2, err := Build(c2, Config{Vertices: 250, AvgDegree: 7, Seed: 9, HomeNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Mode = ModeISPF
	res2, err := Traverse(c2, 0, g2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.VisitSum != res.VisitSum {
		t.Fatal("Mixed walk diverged from ISP-F walk")
	}
}

// TestPerWalkerChecksums: every walker's checksum must match its
// in-memory reference, and the aggregate is their XOR.
func TestPerWalkerChecksums(t *testing.T) {
	c := graphCluster(t, 4)
	g, err := Build(c, Config{Vertices: 200, AvgDegree: 6, Seed: 21, HomeNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	cfg := TraverseConfig{Start: 0, Steps: 40, Mode: ModeISPF, Seed: 2, Walkers: 3}
	res, err := Traverse(c, 0, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VisitSums) != 3 {
		t.Fatalf("per-walker sums: %d, want 3", len(res.VisitSums))
	}
	var xor uint64
	for w, got := range res.VisitSums {
		want := ReferenceWalkWalker(g, cfg, w)
		if got != want {
			t.Fatalf("walker %d checksum %x != reference %x", w, got, want)
		}
		xor ^= got
	}
	if res.VisitSum != xor {
		t.Fatalf("aggregate VisitSum %x != xor %x", res.VisitSum, xor)
	}
}

// TestTraverseFailingReadPropagates: a walker whose page read fails
// must fail the run. Regression: the walker silently decremented the
// remaining count and the run reported success with a truncated Steps
// count.
func TestTraverseFailingReadPropagates(t *testing.T) {
	c := graphCluster(t, 2)
	const vertices = 40
	cfg := Config{Vertices: vertices, AvgDegree: 4, Seed: 3, HomeNode: 0}
	adj := GenAdjacency(cfg, c.Params.PageSize())
	// Point every vertex at an unwritten flash page: the very first
	// lookup fails at the device (nand refuses to read a free page).
	addrs := make([]core.PageAddr, vertices)
	for v := range addrs {
		addrs[v] = core.LinearPage(c.Params, 1, v)
	}
	g, err := NewStored(c, cfg, adj, addrs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Traverse(c, 0, g, TraverseConfig{Start: 1, Steps: 30, Mode: ModeISPF, Seed: 5, Walkers: 2})
	if err == nil {
		t.Fatalf("failing reads reported success: %+v", res)
	}
	if res != nil {
		t.Fatalf("failed run returned a result: %+v", res)
	}
	if !strings.Contains(err.Error(), "walker") {
		t.Fatalf("error lost walker context: %v", err)
	}
}

// TestTraverseDoneFiresOnce: a traversal of several walkers that fails
// before any walk (unknown mode) fires the completion callback once,
// not once per walker.
func TestTraverseDoneFiresOnce(t *testing.T) {
	c := graphCluster(t, 2)
	g, err := Build(c, Config{Vertices: 40, AvgDegree: 4, Seed: 3, HomeNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	TraverseAsync(c, 0, g, TraverseConfig{Start: 1, Steps: 10, Mode: Mode(99), Seed: 5, Walkers: 3},
		func(r *Result, err error) {
			fired++
			if err == nil {
				t.Fatal("unknown mode reported success")
			}
		})
	c.Run()
	if fired != 1 {
		t.Fatalf("done fired %d times, want exactly once", fired)
	}
}

// TestStoredGraphWalksLikeBuilt: a NewStored graph over the same
// adjacency data walks to the same checksums as the oracle.
func TestStoredGraphWalksLikeBuilt(t *testing.T) {
	c := graphCluster(t, 2)
	const vertices = 60
	cfg := Config{Vertices: vertices, AvgDegree: 5, Seed: 8, HomeNode: 0}
	adj := GenAdjacency(cfg, c.Params.PageSize())
	ps := c.Params.PageSize()
	if err := c.SeedLinear(1, vertices, func(idx int, page []byte) {
		enc, err := EncodePage(adj[idx], ps)
		if err != nil {
			panic(err)
		}
		copy(page, enc)
	}); err != nil {
		t.Fatal(err)
	}
	addrs := make([]core.PageAddr, vertices)
	for v := range addrs {
		addrs[v] = core.LinearPage(c.Params, 1, v)
	}
	g, err := NewStored(c, cfg, adj, addrs)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := TraverseConfig{Start: 2, Steps: 50, Mode: ModeISPF, Seed: 6, Walkers: 1}
	res, err := Traverse(c, 0, g, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := ReferenceWalk(g, tcfg); res.VisitSum != want {
		t.Fatalf("stored-graph walk %x != reference %x", res.VisitSum, want)
	}
	if g.OwnerOf(3) != 1 {
		t.Fatalf("OwnerOf(3) = %d, want 1", g.OwnerOf(3))
	}
}

// TestTraverseRejectsNoSteps: a walk of zero or negative steps fails
// with ErrBadSteps (requireRefused).
func TestTraverseRejectsNoSteps(t *testing.T) {
	for _, steps := range []int{0, -1} {
		requireRefused(t, TraverseConfig{Steps: steps, Mode: ModeISPF}, ErrBadSteps)
	}
}

// requireRefused: TraverseAsync refuses cfg with want: done fires once,
// before TraverseAsync returns, and no walker schedules an event. The
// engine runs at most 1000 events after it, so a refusal that falls
// through into the walk fails here instead of hanging.
func requireRefused(t *testing.T, cfg TraverseConfig, want error) {
	t.Helper()
	c := graphCluster(t, 2)
	g, err := Build(c, Config{Vertices: 40, AvgDegree: 4, Seed: 3, HomeNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	fired, calls := c.Eng.Fired(), 0
	var got error
	TraverseAsync(c, 0, g, cfg, func(_ *Result, err error) {
		got, calls = err, calls+1
	})
	if calls != 1 || !errors.Is(got, want) {
		t.Fatalf("%+v: done called %d times with %v, want once with %v", cfg, calls, got, want)
	}
	c.Eng.RunWhile(func() bool { return c.Eng.Fired()-fired < 1000 })
	if n := c.Eng.Fired() - fired; n != 0 || calls != 1 {
		t.Fatalf("%+v: the refused walk fired %d events and done %d times", cfg, n, calls)
	}
}

// TestTraverseRejectsBadMode: a walk whose Mode is none of the five
// fails with ErrBadMode before any read is issued (requireRefused).
func TestTraverseRejectsBadMode(t *testing.T) {
	for _, mode := range []Mode{-1, ModeMixed + 1, 99} {
		requireRefused(t, TraverseConfig{Start: 1, Steps: 10, Mode: mode, Walkers: 3}, ErrBadMode)
	}
}
