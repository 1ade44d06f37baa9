// String search offload (paper §7.3): a DNA-motif scan over a file in
// the BlueDBM file system. The host compiles the Morris-Pratt pattern
// and sends it with the file's physical addresses to the in-store
// engine (ispvol), which reads the file through the scheduler's Accel
// class and returns only match positions — the scan itself runs at
// full flash bandwidth with essentially zero host CPU. The same scan
// through software grep on a modeled SSD and HDD shows the contrast of
// Figure 21.
package main

import (
	"fmt"
	"log"
	"slices"

	"repro/internal/accel/search"
	"repro/internal/altstore"
	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	motif = "GATTACAGATTACA"
	pages = 512
)

func main() {
	cluster, err := core.NewCluster(core.DefaultParams(1))
	if err != nil {
		log.Fatal(err)
	}
	scheduler, err := sched.New(cluster, sched.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	engine, err := ispvol.New(cluster, scheduler, nil, ispvol.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fs, err := rfs.New(cluster.Node(0).NewIface(0, "fs"), cluster.Params.Geometry, rfs.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// A genome-like haystack with the motif planted every 32 pages.
	gen := workload.DNAPages(5, motif, 32)
	f, err := fs.Create("genome.dna")
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, cluster.Params.PageSize())
	for i := 0; i < pages; i++ {
		gen(i, buf)
		var werr error
		f.AppendPage(buf, func(err error) { werr = err })
		cluster.Run()
		if werr != nil {
			log.Fatalf("writing page %d: %v", i, werr)
		}
	}
	total := int64(pages) * int64(cluster.Params.PageSize())
	fmt.Printf("wrote %s: %d MB across %d flash pages\n", f.Name(), total>>20, f.Pages())

	// In-store scan.
	var isp *ispvol.SearchResult
	engine.Search(0, ispvol.File(f), []byte(motif), ispvol.InStore,
		func(r *ispvol.SearchResult, e error) { isp, err = r, e })
	cluster.Run()
	if err != nil {
		log.Fatal(err)
	}
	if isp == nil || isp.FailedPages != 0 {
		log.Fatalf("in-store scan did not read every page: %+v", isp)
	}
	fmt.Printf("\n%-14s %8.0f MB/s   %5.1f%% CPU   %d matches\n",
		"Flash/ISP", isp.Throughput/1e6, cluster.Node(0).CPU.Utilization()*100, len(isp.Matches))

	// Software grep over comparator devices.
	for _, dev := range []string{"SSD", "HDD"} {
		eng := sim.NewEngine()
		cpu, err := hostmodel.New(eng, "host", hostmodel.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		var reader altstore.Device
		if dev == "SSD" {
			reader, err = altstore.NewSSD(eng, "m2", altstore.DefaultSSD())
		} else {
			reader, err = altstore.NewHDD(eng, "disk", altstore.DefaultHDD())
		}
		if err != nil {
			log.Fatal(err)
		}
		res, err := search.SearchSoftware(eng, cpu, reader, pages, cluster.Params.PageSize(),
			gen, []byte(motif), 16)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %8.0f MB/s   %5.1f%% CPU   %d matches\n",
			dev+"/SW grep", res.Throughput/1e6, res.CPUUtil*100, len(res.Matches))
		if !slices.Equal(res.Matches, isp.Matches) {
			log.Fatal("software scan found a different match set")
		}
	}
	fmt.Println("\nidentical match sets; the ISP frees the entire host CPU for the real query.")
}
