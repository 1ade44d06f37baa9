package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/flashserver"
	"repro/internal/sim"
)

// fig13 reproduces Figure 13 (§6.5): sustained random 8 KB read
// bandwidth under four request mixes:
//
//	Host-Local: host reads local flash over PCIe  (paper: 1.6 GB/s cap)
//	ISP-Local:  ISP consumes local flash          (paper: 2.4 GB/s)
//	ISP-2Nodes: 50% remote over ONE serial link   (paper: ~3.4 GB/s)
//	ISP-3Nodes: 33% to each of two remotes, TWO
//	            links per remote                  (paper: ~6.5 GB/s)
func fig13(p core.Params) (Rows, error) {
	out := Rows{Title: "Figure 13: read bandwidth by access mix", Key: "Scenario", Cols: cols("%.2f", "GB/s")}
	bw, err := fig13HostLocal(p)
	if err != nil {
		return Rows{}, err
	}
	out.add("Host-Local", bw)
	for _, sc := range []struct {
		name    string
		remotes int
		links   int
	}{
		{"ISP-Local", 0, 0},
		{"ISP-2Nodes", 1, 1},
		{"ISP-3Nodes", 2, 2},
	} {
		bw, err := fig13ISP(p, sc.remotes, sc.links)
		if err != nil {
			return Rows{}, fmt.Errorf("fig13 %s: %w", sc.name, err)
		}
		out.add(sc.name, bw)
	}
	return out, nil
}

// Every arm reads fig13Pages seeded pages per target node with
// fig13Engines request streams per target, each keeping fig13Window
// reads in flight, and counts the pages delivered in fig13Time.
const (
	fig13Pages   = 480
	fig13Engines = 32
	fig13Window  = 6
	fig13Time    = 6 * sim.Millisecond
)

// fig13HostLocal is the host reading its local flash over PCIe. The
// host keeps many in-flight requests using its 128 read buffers;
// software overhead is paid per batch, not per page (the driver submits
// queues of requests).
func fig13HostLocal(p core.Params) (float64, error) {
	p.Nodes = 1
	// core.NewCluster, not workload.Build: the reads go over the card's
	// striped lanes on purpose (through the host-op path they measure
	// 1.54 GB/s, not 1.57).
	c, err := core.NewCluster(p)
	if err != nil {
		return 0, err
	}
	node := c.Node(0)
	return fig13Bandwidth(c, []int{0}, 77, func(int, int) fig13Read {
		return func(a core.PageAddr, done func([]byte, error)) {
			node.ReadLocal(a.Card, a.Addr, func(data []byte, err error) {
				if err != nil {
					done(nil, err)
					return
				}
				node.Host.PageUp(len(data), func() { done(data, nil) })
			})
		}
	})
}

// fig13ISP measures the ISP-consumed aggregate with `remotes` remote
// nodes connected by `links` parallel cables each.
func fig13ISP(p core.Params, remotes, links int) (float64, error) {
	p.Nodes = remotes + 1
	targets := []int{0}
	topo := fabric.Topology{Name: "fig13", Nodes: p.Nodes}
	for r := 1; r <= remotes; r++ {
		targets = append(targets, r)
		for l := 0; l < links; l++ {
			topo.Edges = append(topo.Edges, [2]int{0, r})
		}
	}
	if remotes > 0 {
		p.Topology = topo
	}
	// core.NewCluster, not workload.Build: each local engine reads
	// through a private flash interface, below any scheduler.
	c, err := core.NewCluster(p)
	if err != nil {
		return 0, err
	}
	node := c.Node(0)
	return fig13Bandwidth(c, targets, 78, func(target, engine int) fig13Read {
		if target != 0 {
			// Remote reads ride the shared network lanes.
			return node.ISPReadDirect
		}
		// Local engines get private in-order flash interfaces, the way
		// hardware ISP engines attach to the Flash Server with their
		// own request channels.
		var ifaces []*flashserver.Iface
		for card := 0; card < c.Params.CardsPerNode; card++ {
			ifaces = append(ifaces, node.NewIface(card, fmt.Sprintf("fig13-e%d-c%d", engine, card)))
		}
		return func(a core.PageAddr, done func([]byte, error)) { ifaces[a.Card].ReadPhysical(a.Addr, done) }
	})
}

// fig13Read issues one page read of an arm.
type fig13Read func(a core.PageAddr, done func([]byte, error))

// fig13Bandwidth seeds every target, then runs fig13Engines request
// streams per target, each keeping fig13Window reads of random seeded
// pages in flight through the read engineRead gives it, and returns
// the GB/s delivered inside fig13Time.
func fig13Bandwidth(c *core.Cluster, targets []int, seed uint64, engineRead func(target, engine int) fig13Read) (float64, error) {
	for _, n := range targets {
		if err := c.SeedLinear(n, fig13Pages, nil); err != nil {
			return 0, err
		}
	}
	rng := sim.NewRNG(seed)
	delivered := 0
	start := c.Eng.Now()
	deadline := start + fig13Time
	for _, target := range targets {
		for e := 0; e < fig13Engines; e++ {
			read := engineRead(target, e)
			var pump func()
			pump = func() {
				if c.Eng.Now() >= deadline {
					return
				}
				read(core.LinearPage(c.Params, target, rng.Intn(fig13Pages)), func(_ []byte, err error) {
					if err == nil && c.Eng.Now() < deadline {
						delivered++
					}
					pump()
				})
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
