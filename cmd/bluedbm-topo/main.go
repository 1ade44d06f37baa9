// Command bluedbm-topo builds, validates and inspects storage-network
// topologies (paper §3.2, Figure 5): BlueDBM relies on a network
// configuration file instead of a discovery protocol, and this tool is
// the configuration-file workflow.
//
// Usage:
//
//	bluedbm-topo -gen ring -nodes 20 -lanes 4 > ring20.json
//	bluedbm-topo -check ring20.json
//	bluedbm-topo -check ring20.json -routes
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func main() {
	gen := flag.String("gen", "", "generate a topology: ring, line, mesh, star, full")
	nodes := flag.Int("nodes", 20, "node count (mesh uses the nearest WxH grid)")
	lanes := flag.Int("lanes", 1, "parallel cables per logical edge (ring/line)")
	hubs := flag.Int("hubs", 4, "hub count for star topologies")
	check := flag.String("check", "", "validate a topology config file")
	routes := flag.Bool("routes", false, "with -check: print hop-distance matrix")
	ports := flag.Int("ports", 8, "ports per node budget")
	flag.Parse()

	switch {
	case *gen != "":
		topo, err := generate(*gen, *nodes, *lanes, *hubs)
		if err != nil {
			fatal(err)
		}
		b, err := topo.Encode()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	case *check != "":
		b, err := os.ReadFile(*check)
		if err != nil {
			fatal(err)
		}
		topo, err := fabric.DecodeTopology(b)
		if err != nil {
			fatal(err)
		}
		if err := topo.Validate(*ports); err != nil {
			fatal(err)
		}
		eng := sim.NewEngine()
		net, err := topo.Build(eng, fabric.DefaultConfig(), 7)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("topology %q: %d nodes, %d cables, fits %d ports/node, connected\n",
			topo.Name, topo.Nodes, net.Links(), *ports)
		if *routes {
			printDistances(net)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func generate(kind string, nodes, lanes, hubs int) (fabric.Topology, error) {
	switch kind {
	case "ring":
		return fabric.Ring(nodes, lanes), nil
	case "line":
		return fabric.Line(nodes, lanes), nil
	case "mesh":
		w := 1
		for w*w < nodes {
			w++
		}
		h := (nodes + w - 1) / w
		return fabric.Mesh2D(w, h), nil
	case "star":
		return fabric.DistributedStar(nodes, hubs), nil
	case "full":
		return fabric.FullMesh(nodes), nil
	default:
		return fabric.Topology{}, fmt.Errorf("unknown topology kind %q", kind)
	}
}

func printDistances(net *fabric.Network) {
	n := net.Nodes()
	fmt.Print("hops")
	for j := 0; j < n; j++ {
		fmt.Printf("%4d", j)
	}
	fmt.Println()
	for i := 0; i < n; i++ {
		fmt.Printf("%4d", i)
		for j := 0; j < n; j++ {
			fmt.Printf("%4d", net.Hops(fabric.NodeID(i), fabric.NodeID(j)))
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bluedbm-topo:", err)
	os.Exit(1)
}
