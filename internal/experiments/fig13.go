package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/flashserver"
	"repro/internal/sim"
)

// Fig13Row is one bar of Figure 13.
type Fig13Row struct {
	Scenario string
	GBps     float64
}

// Fig13 reproduces Figure 13 (§6.5): sustained random 8 KB read
// bandwidth under four request mixes:
//
//	Host-Local: host reads local flash over PCIe  (paper: 1.6 GB/s cap)
//	ISP-Local:  ISP consumes local flash          (paper: 2.4 GB/s)
//	ISP-2Nodes: 50% remote over ONE serial link   (paper: ~3.4 GB/s)
//	ISP-3Nodes: 33% to each of two remotes, TWO
//	            links per remote                  (paper: ~6.5 GB/s)
func Fig13() ([]Fig13Row, error) {
	var out []Fig13Row

	hostLocal, err := fig13HostLocal()
	if err != nil {
		return nil, err
	}
	out = append(out, Fig13Row{Scenario: "Host-Local", GBps: hostLocal})

	for _, sc := range []struct {
		name    string
		remotes int
		links   int
	}{
		{"ISP-Local", 0, 0},
		{"ISP-2Nodes", 1, 1},
		{"ISP-3Nodes", 2, 2},
	} {
		bw, err := fig13ISP(sc.remotes, sc.links)
		if err != nil {
			return nil, fmt.Errorf("fig13 %s: %w", sc.name, err)
		}
		out = append(out, Fig13Row{Scenario: sc.name, GBps: bw})
	}
	return out, nil
}

// fig13Seed fills every target node with readable pages.
func fig13Seed(c *core.Cluster, nodes []int, pages int) error {
	for _, n := range nodes {
		if err := c.SeedLinear(n, pages, nil); err != nil {
			return err
		}
	}
	return nil
}

// measureWindow counts pages fully delivered during a fixed window of
// virtual time with `engines` independent request streams per target.
const (
	fig13Pages   = 480 // seeded pages per node
	fig13Engines = 32  // request streams per target node
	fig13Window  = 6   // in-flight reads per stream
	fig13Time    = 6 * sim.Millisecond
)

func fig13HostLocal() (float64, error) {
	c, err := core.NewCluster(scaledParams(1))
	if err != nil {
		return 0, err
	}
	if err := fig13Seed(c, []int{0}, fig13Pages); err != nil {
		return 0, err
	}
	node := c.Node(0)
	rng := sim.NewRNG(77)
	delivered := 0
	start := c.Eng.Now()
	deadline := start + fig13Time
	// The host keeps many in-flight requests using its 128 read
	// buffers; software overhead is paid per batch, not per page
	// (the driver submits queues of requests).
	for s := 0; s < fig13Engines; s++ {
		var pump func()
		pump = func() {
			if c.Eng.Now() >= deadline {
				return
			}
			a := core.LinearPage(c.Params, 0, rng.Intn(fig13Pages))
			node.ReadLocal(a.Card, a.Addr, func(data []byte, err error) {
				if err != nil {
					pump()
					return
				}
				node.Host.PageUp(len(data), func() {
					if c.Eng.Now() < deadline {
						delivered++
					}
					pump()
				})
			})
		}
		for w := 0; w < fig13Window; w++ {
			pump()
		}
	}
	c.Eng.RunUntil(deadline)
	elapsed := (c.Eng.Now() - start).Seconds()
	return float64(delivered) * float64(c.Params.PageSize()) / elapsed / 1e9, nil
}

// fig13ISP measures the ISP-consumed aggregate with `remotes` remote
// nodes connected by `links` parallel cables each.
func fig13ISP(remotes, links int) (float64, error) {
	nodes := remotes + 1
	p := scaledParams(nodes)
	if nodes > 1 {
		topo := fabric.Topology{Name: "fig13", Nodes: nodes}
		for r := 1; r <= remotes; r++ {
			for l := 0; l < links; l++ {
				topo.Edges = append(topo.Edges, [2]int{0, r})
			}
		}
		p.Topology = topo
	}
	c, err := core.NewCluster(p)
	if err != nil {
		return 0, err
	}
	targets := []int{0}
	for r := 1; r <= remotes; r++ {
		targets = append(targets, r)
	}
	if err := fig13Seed(c, targets, fig13Pages); err != nil {
		return 0, err
	}
	node := c.Node(0)
	rng := sim.NewRNG(78)
	delivered := 0
	start := c.Eng.Now()
	deadline := start + fig13Time
	for _, target := range targets {
		target := target
		for s := 0; s < fig13Engines; s++ {
			// Local engines get private in-order flash interfaces, the
			// way hardware ISP engines attach to the Flash Server with
			// their own request channels; remote reads ride the shared
			// network lanes.
			var ifaces []*flashserver.Iface
			if target == 0 {
				for card := 0; card < c.Params.CardsPerNode; card++ {
					ifaces = append(ifaces, node.NewIface(card, fmt.Sprintf("fig13-e%d-c%d", s, card)))
				}
			}
			var pump func()
			pump = func() {
				if c.Eng.Now() >= deadline {
					return
				}
				a := core.LinearPage(c.Params, target, rng.Intn(fig13Pages))
				done := func(_ []byte, err error) {
					if err == nil && c.Eng.Now() < deadline {
						delivered++
					}
					pump()
				}
				if target == 0 {
					ifaces[a.Card].ReadPhysical(a.Addr, done)
				} else {
					node.ISPReadDirect(a, done)
				}
			}
			for w := 0; w < fig13Window; w++ {
				pump()
			}
		}
	}
	c.Eng.RunUntil(deadline)
	elapsed := (c.Eng.Now() - start).Seconds()
	return float64(delivered) * float64(c.Params.PageSize()) / elapsed / 1e9, nil
}

// FormatFig13 renders the bars.
func FormatFig13(rows []Fig13Row) string {
	var t table
	t.row("Scenario", "GB/s")
	for _, r := range rows {
		t.row(r.Scenario, f2(r.GBps))
	}
	return "Figure 13: read bandwidth by access mix\n" + t.String()
}
