// Quickstart: boot a 4-node BlueDBM appliance, write a page on one
// node's flash, and read it back three ways — locally, from a remote
// in-store processor over the integrated storage network (ISP-F), and
// from a remote host through its software stack (H-RH-F) — printing
// the latency of each, which is the architecture's whole point.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	// A 4-node cluster wired as the default ring with 4 lanes between
	// neighbors, flash/network/PCIe parameters from the paper.
	params := core.DefaultParams(4)
	cluster, err := core.NewCluster(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted %d-node BlueDBM: %d MB flash/node (capacity-scaled), %d B pages\n",
		cluster.Nodes(), params.NodeCapacity()>>20, params.PageSize())

	// Write one page on node 2.
	addr := core.LinearPage(params, 2, 0)
	payload := bytes.Repeat([]byte("bluedbm!"), params.PageSize()/8)
	if err := cluster.SeedLinear(2, 1, func(_ int, page []byte) { copy(page, payload) }); err != nil {
		log.Fatalf("write: %v", err)
	}
	fmt.Printf("wrote page %v\n", addr)

	// 1. Local read on node 2 (device-side).
	measure := func(label string, read func(cb func([]byte, error))) {
		start := cluster.Eng.Now()
		var got []byte
		read(func(data []byte, err error) {
			if err != nil {
				log.Fatalf("%s: %v", label, err)
			}
			got = data
		})
		cluster.Run()
		if !bytes.Equal(got, payload) {
			log.Fatalf("%s: data mismatch", label)
		}
		fmt.Printf("%-28s %8.1f us\n", label, (cluster.Eng.Now() - start).Micros())
	}

	measure("local ISP read (node 2)", func(cb func([]byte, error)) {
		cluster.Node(2).ISPReadDirect(addr, cb)
	})
	measure("remote ISP-F read (node 0)", func(cb func([]byte, error)) {
		cluster.Node(0).ISPReadDirect(addr, cb)
	})
	measure("remote H-RH-F read (node 0)", func(cb func([]byte, error)) {
		cluster.Node(0).HostRead(addr, core.PathHRHF, nil, cb)
	})

	fmt.Printf("\nsimulated time: %v; the ISP-F path skips every software layer,\n", cluster.Eng.Now())
	fmt.Println("which is why BlueDBM gives near-uniform latency into all 4 nodes' flash.")
	_ = sim.Microsecond
}
