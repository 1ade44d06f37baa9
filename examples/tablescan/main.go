// SQL table-scan offload (the paper's §8 planned work, implemented):
// a table of fixed-size rows lives in a file of the cluster-wide RFS;
// a selective predicate is pushed down into the storage device, so
// only matching rows cross PCIe. The same query through the
// host-mediated placement hauls the entire table to the host and
// filters in software.
//
// This is the Ibex/Netezza-style selection offload the related-work
// section discusses, expressed as a BlueDBM in-store processor.
package main

import (
	"fmt"
	"log"
	"slices"

	"repro/internal/accel/tablescan"
	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	const pages = 192
	pred := tablescan.Predicate{Col: tablescan.ColB, Op: tablescan.OpEQ, Value: 42} // ~1% selectivity

	icfg := ispvol.DefaultConfig()
	rcfg := rfs.DefaultConfig()
	st, err := workload.Build(workload.StackSpec{Params: core.DefaultParams(1), Sched: sched.DefaultConfig(),
		RFS: &rcfg, ISP: &icfg})
	if err != nil {
		log.Fatal(err)
	}
	f, err := st.FS.Create("table")
	if err != nil {
		log.Fatal(err)
	}
	// ColA is uniform in [0, 1e6), ColB in [0, 100); IDs are dense from
	// zero. The seeder fills pages in page order.
	ps := st.C.Params.PageSize()
	rng := sim.NewRNG(77)
	nextID := uint64(0)
	recs := make([]tablescan.Record, tablescan.RecordsPerPage(ps))
	if err := st.SeedFile(f.AppendPage, pages, func(_ int, page []byte) {
		for i := range recs {
			recs[i] = tablescan.Record{ID: nextID, ColA: int64(rng.Intn(1_000_000)), ColB: int64(rng.Intn(100))}
			nextID++
		}
		enc, err := tablescan.EncodeRecords(recs, ps)
		if err != nil {
			log.Fatal(err)
		}
		copy(page, enc)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("table: %d rows in %d flash pages; query: SELECT * WHERE colB = 42\n\n", nextID, pages)

	// scan runs the query under one placement and returns its result
	// and the host CPU it used over the query's window alone.
	cpu := st.C.Node(0).CPU
	scan := func(pl ispvol.Placement) (*ispvol.ScanResult, float64) {
		busy := cpu.Stats().CoreBusyMs
		var res *ispvol.ScanResult
		var qerr error
		st.ISP.TableScan(0, ispvol.File(f), pred, pl, func(r *ispvol.ScanResult, err error) { res, qerr = r, err })
		st.C.Run()
		if qerr != nil {
			log.Fatal(qerr)
		}
		if res == nil {
			log.Fatalf("%v query never finished", pl)
		}
		coreMs := float64(res.Elapsed) / float64(sim.Millisecond) * float64(cpu.Config().Cores)
		return res, (cpu.Stats().CoreBusyMs - busy) / coreMs
	}
	isp, ispCPU := scan(ispvol.InStore)
	host, hostCPU := scan(ispvol.HostMediated)

	if !slices.Equal(isp.Matches, host.Matches) {
		log.Fatalf("result mismatch: %d vs %d rows", len(isp.Matches), len(host.Matches))
	}

	fmt.Printf("%-18s %12s %14s %12s\n", "path", "Mrows/s", "bytes to host", "host CPU")
	fmt.Printf("%-18s %12.1f %14d %11.1f%%\n", "in-store filter",
		isp.RowsPerSec/1e6, isp.BytesToHost, ispCPU*100)
	fmt.Printf("%-18s %12.1f %14d %11.1f%%\n", "host filter",
		host.RowsPerSec/1e6, host.BytesToHost, hostCPU*100)
	fmt.Printf("\nboth returned %d rows; pushdown moved %.0fx less data over PCIe.\n",
		len(isp.Matches), float64(host.BytesToHost)/float64(isp.BytesToHost))
}
