package experiments

import (
	"repro/internal/accel/graph"
	"repro/internal/core"
)

// fig20 reproduces Figure 20 (§7.2): dependent-lookup graph traversal
// throughput under each access configuration. The paper's result: the
// integrated network plus in-store traversal (ISP-F) is ~3x a generic
// distributed SSD (H-RH-F), and beats even a store with 50% of
// accesses served by DRAM. It runs on a 4-node cluster.
func fig20(p core.Params) (Rows, error) {
	p.Nodes = 4
	type cfg struct {
		name string
		mode graph.Mode
		pct  int
	}
	cfgs := []cfg{
		{"ISP-F", graph.ModeISPF, 0},
		{"H-F", graph.ModeHF, 0},
		{"H-RH-F", graph.ModeHRHF, 0},
		{"50%F", graph.ModeMixed, 50},
		{"30%F", graph.ModeMixed, 30},
		{"H-DRAM", graph.ModeHDRAM, 0},
	}
	out := Rows{Title: "Figure 20: graph traversal performance", Key: "Access", Cols: cols("%.0f", "Lookups/s")}
	for _, cf := range cfgs {
		c, err := newCluster(p)
		if err != nil {
			return Rows{}, err
		}
		g, err := graph.Build(c, graph.Config{Vertices: 240, AvgDegree: 8, Seed: 23, HomeNode: 0})
		if err != nil {
			return Rows{}, err
		}
		res, err := graph.Traverse(c, 0, g, graph.TraverseConfig{
			Start: 3, Steps: 200, Mode: cf.mode, PctFlash: cf.pct, Seed: 29, Walkers: 1,
		})
		if err != nil {
			return Rows{}, err
		}
		out.add(cf.name, res.LookupsPerSec)
	}
	return out, nil
}
