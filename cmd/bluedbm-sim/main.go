// Command bluedbm-sim boots a BlueDBM cluster, drives a mixed workload
// against it (local and remote reads through the in-store path, plus
// host-path traffic), and prints an operator dashboard of flash, ECC,
// network and host activity. It is the "kick the tires" tool for
// cluster configurations.
//
// Usage:
//
//	bluedbm-sim -nodes 8 -ops 2000 -topology ring -lanes 4
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	nodes := flag.Int("nodes", 8, "cluster size")
	ops := flag.Int("ops", 2000, "operations to run")
	topoKind := flag.String("topology", "ring", "ring, line, mesh, full")
	lanes := flag.Int("lanes", 4, "parallel cables per edge (ring/line)")
	errRate := flag.Float64("biterr", 1e-7, "per-bit flash error rate")
	flag.Parse()

	p := core.DefaultParams(*nodes)
	p.Reliability.BitErrorRate = *errRate
	if *nodes > 1 {
		switch *topoKind {
		case "ring":
			p.Topology = fabric.Ring(*nodes, *lanes)
		case "line":
			p.Topology = fabric.Line(*nodes, *lanes)
		case "mesh":
			w := 1
			for w*w < *nodes {
				w++
			}
			if w*((*nodes+w-1)/w) != *nodes {
				fatal(fmt.Errorf("mesh needs a rectangular node count, got %d", *nodes))
			}
			p.Topology = fabric.Mesh2D(w, *nodes/w)
		case "full":
			p.Topology = fabric.FullMesh(*nodes)
		default:
			fatal(fmt.Errorf("unknown topology %q", *topoKind))
		}
		if err := p.Topology.Validate(p.Net.PortsPerNode); err != nil {
			fatal(err)
		}
	}
	c, err := core.NewCluster(p)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("booted %d nodes (%s), %d MB flash/node\n",
		*nodes, p.Topology.Name, p.NodeCapacity()>>20)

	// Seed a working set on every node.
	const seedPages = 64
	for n := 0; n < *nodes; n++ {
		if err := c.SeedLinear(n, seedPages, func(idx int, page []byte) {
			page[0] = byte(n)
			page[1] = byte(idx)
		}); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("seeded %d pages per node\n", seedPages)

	// Mixed workload: 70% ISP reads (local+remote), 30% host reads.
	rng := sim.NewRNG(123)
	errors := 0
	done := 0
	for i := 0; i < *ops; i++ {
		src := rng.Intn(*nodes)
		dst := rng.Intn(*nodes)
		a := core.LinearPage(p, dst, rng.Intn(seedPages))
		cb := func(d []byte, err error) {
			if err != nil {
				errors++
			} else if d[0] != byte(dst) {
				errors++
			}
			done++
		}
		if rng.Intn(10) < 7 {
			c.Node(src).ISPReadDirect(a, cb)
		} else {
			c.Node(src).HostRead(a, core.PathHF, nil, cb)
		}
		if i%256 == 255 {
			c.Run()
		}
	}
	c.Run()
	fmt.Printf("ran %d operations (%d errors)\n\n", done, errors)

	fmt.Print(report.Snapshot(c).Format())
	if errors > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bluedbm-sim:", err)
	os.Exit(1)
}
