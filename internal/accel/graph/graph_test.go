package graph

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/core/coretest"
)

func graphCluster(t *testing.T, nodes int) *core.Cluster {
	t.Helper()
	p := core.DefaultParams(nodes)
	p.Geometry.BlocksPerChip = 8
	p.Geometry.PagesPerBlock = 16
	c := coretest.NewCluster(t, p)
	return c
}

func TestEncodeDecodePage(t *testing.T) {
	nbs := []uint32{1, 5, 99, 1 << 30}
	page, err := EncodePage(nbs, 8192)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePage(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(nbs) {
		t.Fatalf("decoded %d neighbors, want %d", len(got), len(nbs))
	}
	for i := range nbs {
		if got[i] != nbs[i] {
			t.Fatalf("neighbor %d: %d != %d", i, got[i], nbs[i])
		}
	}
	if _, err := EncodePage(make([]uint32, 3000), 8192); !errors.Is(err, ErrTooManyEdges) {
		t.Fatalf("oversized list: %v", err)
	}
	if _, err := DecodePage([]byte{1}); !errors.Is(err, ErrBadPage) {
		t.Fatalf("short page: %v", err)
	}
	if _, err := DecodePage([]byte{255, 255, 0, 0, 1}); !errors.Is(err, ErrBadPage) {
		t.Fatalf("lying degree: %v", err)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		if len(raw) > 100 {
			raw = raw[:100]
		}
		page, err := EncodePage(raw, 4096)
		if err != nil {
			return false
		}
		got, err := DecodePage(page)
		if err != nil || len(got) != len(raw) {
			return false
		}
		for i := range raw {
			if got[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAndWalkMatchesReference(t *testing.T) {
	c := graphCluster(t, 4)
	g, err := Build(c, Config{Vertices: 300, AvgDegree: 8, Seed: 5, HomeNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	cfg := TraverseConfig{Start: 7, Steps: 50, Mode: ModeISPF, Seed: 13, Walkers: 1}
	res, err := Traverse(c, 0, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 50 {
		t.Fatalf("steps = %d", res.Steps)
	}
	if want := ReferenceWalk(g, cfg); res.VisitSum != want {
		t.Fatalf("ISP walk checksum %x != reference %x", res.VisitSum, want)
	}
	// The same walk through the host path visits the same vertices.
	c2 := graphCluster(t, 4)
	g2, err := Build(c2, Config{Vertices: 300, AvgDegree: 8, Seed: 5, HomeNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Mode = ModeHF
	res2, err := Traverse(c2, 0, g2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.VisitSum != res.VisitSum {
		t.Fatal("H-F walk diverged from ISP-F walk")
	}
}

func TestFig20Ordering(t *testing.T) {
	// The paper's result: ISP-F ~3x H-RH-F; H-DRAM fastest; mixed
	// configurations in between, and ISP-F beats even DRAM+50%flash.
	rate := func(mode Mode, pct int) float64 {
		c := graphCluster(t, 4)
		g, err := Build(c, Config{Vertices: 200, AvgDegree: 6, Seed: 3, HomeNode: 0})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Traverse(c, 0, g, TraverseConfig{
			Start: 1, Steps: 150, Mode: mode, PctFlash: pct, Seed: 17, Walkers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.LookupsPerSec
	}
	ispf := rate(ModeISPF, 0)
	hf := rate(ModeHF, 0)
	hrhf := rate(ModeHRHF, 0)
	f50 := rate(ModeMixed, 50)
	f30 := rate(ModeMixed, 30)
	hdram := rate(ModeHDRAM, 0)

	if !(ispf > hf && hf > hrhf) {
		t.Fatalf("ISP-F (%.0f) > H-F (%.0f) > H-RH-F (%.0f) violated", ispf, hf, hrhf)
	}
	if ratio := ispf / hrhf; ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("ISP-F/H-RH-F = %.2f, paper reports ~3x", ratio)
	}
	if !(f30 > f50 && f50 > hrhf) {
		t.Fatalf("mixed ordering broken: 30%%F %.0f, 50%%F %.0f, H-RH-F %.0f", f30, f50, hrhf)
	}
	if !(hdram > f30) {
		t.Fatalf("H-DRAM (%.0f) should top mixed 30%% (%.0f)", hdram, f30)
	}
	if ispf < f50 {
		t.Fatalf("ISP-F (%.0f) should beat DRAM+50%%flash (%.0f) — the paper's headline", ispf, f50)
	}
}

func TestParallelWalkers(t *testing.T) {
	c := graphCluster(t, 4)
	g, err := Build(c, Config{Vertices: 200, AvgDegree: 6, Seed: 21, HomeNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Traverse(c, 0, g, TraverseConfig{Start: 0, Steps: 60, Mode: ModeISPF, Seed: 2, Walkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Traverse(c, 0, g, TraverseConfig{Start: 0, Steps: 60, Mode: ModeISPF, Seed: 2, Walkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.Steps != 240 {
		t.Fatalf("4 walkers took %d steps, want 240", four.Steps)
	}
	// Independent chains overlap their latencies.
	if four.LookupsPerSec < 2*one.LookupsPerSec {
		t.Fatalf("4 walkers (%.0f/s) should roughly quadruple 1 walker (%.0f/s)",
			four.LookupsPerSec, one.LookupsPerSec)
	}
}

func TestBuildValidation(t *testing.T) {
	c := graphCluster(t, 2)
	if _, err := Build(c, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := Build(c, Config{Vertices: 1 << 22, AvgDegree: 2, HomeNode: 0}); err == nil {
		t.Fatal("oversized graph accepted")
	}
}
