// Nearest-neighbor image search (paper §7.1): an LSH index over 8 KB
// binary items stored in BlueDBM flash. The host hashes the query,
// looks up candidate buckets, and sends the candidates to the in-store
// engine (ispvol), which reads each item's page of a cluster-RFS file,
// Hamming-compares it next to the flash and returns only the best
// match.
//
// The example plants a near-duplicate of the query in the dataset and
// shows the ISP finding it, then compares the in-store rate against
// multithreaded host software on DRAM-resident data.
package main

import (
	"fmt"
	"log"

	"repro/internal/accel/lsh"
	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	items     = 256
	target    = 123 // the planted near-duplicate
	flips     = 60  // bits flipped between query and target
	numTables = 8
	hashBits  = 5 // coarse buckets so the shortlist has real work in it
)

func main() {
	icfg, rcfg := ispvol.DefaultConfig(), rfs.DefaultConfig()
	st, err := workload.Build(workload.StackSpec{Params: core.DefaultParams(1), Sched: sched.DefaultConfig(),
		RFS: &rcfg, ISP: &icfg})
	if err != nil {
		log.Fatal(err)
	}
	pageSize := st.C.Params.PageSize()

	// Dataset with ground truth: item `target` is the query with a few
	// bits flipped.
	data, query, err := workload.NearDuplicateSet(items, pageSize, target, flips, 99)
	if err != nil {
		log.Fatal(err)
	}

	// Host software builds the real LSH index...
	index, err := lsh.NewIndex(pageSize, numTables, hashBits, 7)
	if err != nil {
		log.Fatal(err)
	}
	for id, item := range data {
		if err := index.Add(id, item); err != nil {
			log.Fatal(err)
		}
	}
	// ...and the dataset lives in flash: item i is page i of one file.
	f, err := st.FS.Create("items")
	if err != nil {
		log.Fatal(err)
	}
	if err := st.SeedFile(f.AppendPage, items, func(idx int, page []byte) {
		copy(page, data[idx])
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d items (%d tables x %d bits), dataset on flash\n",
		index.Items(), numTables, hashBits)

	// Query: hash -> candidate ids (each the page holding the item) ->
	// in-store engine.
	candIDs, err := index.Candidates(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LSH shortlisted %d of %d items\n", len(candIDs), items)

	var res *ispvol.NNResult
	st.ISP.NearestNeighbor(0, ispvol.File(f), query, candIDs, candIDs, ispvol.InStore,
		func(r *ispvol.NNResult, e error) { res, err = r, e })
	st.C.Run()
	if err != nil {
		log.Fatal(err)
	}
	if res == nil || res.FailedPages != 0 {
		log.Fatalf("in-store query did not compare every candidate: %+v", res)
	}
	fmt.Printf("ISP best match: item %d at Hamming distance %d (%.0fK comparisons/s)\n",
		res.BestID, res.BestDist, res.CmpPerSec/1000)
	if res.BestID != target {
		log.Fatalf("expected planted item %d", target)
	}

	// Contrast: host software over DRAM-resident data, 4 threads.
	eng := sim.NewEngine()
	cpu, err := hostmodel.New(eng, "host", hostmodel.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sw, err := lsh.RunHostDRAM(eng, cpu, data, candIDs, query, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host DRAM (4 threads):     item %d at distance %d (%.0fK comparisons/s)\n",
		sw.BestID, sw.BestDist, sw.PerSec/1000)
	fmt.Println("\nsame answer; the flash-resident dataset is 10-40x cheaper per TB than DRAM.")
}
