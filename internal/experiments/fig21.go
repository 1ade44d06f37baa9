package experiments

import (
	"fmt"

	"repro/internal/accel/search"
	"repro/internal/altstore"
	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/rfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fig21 reproduces Figure 21 (§7.3): string search bandwidth and host
// CPU utilization for the in-store Morris-Pratt engines versus
// software grep on SSD and on disk. Paper numbers: 1.1 GB/s at ~0%
// CPU for Flash/ISP; SSD-bound grep at 65% CPU; HDD-bound grep (7.5x
// slower than ISP) at 13% CPU.
func fig21(p core.Params) (Rows, error) {
	const needle = "BLUEDBM-ISCA"
	const pages = 768
	gen := workload.TextPages(51, needle, 16)

	// --- Flash/ISP: file system + in-store MP engines ----------------
	p.Nodes = 1
	// core.NewCluster, not workload.Build: the haystack lives on a
	// single-card RFS, not the cluster RFS the stack mounts.
	c, err := core.NewCluster(p)
	if err != nil {
		return Rows{}, err
	}
	fs, err := rfs.New(c.Node(0).NewIface(0, "fs"), c.Params.Geometry, rfs.DefaultConfig())
	if err != nil {
		return Rows{}, err
	}
	f, err := fs.Create("haystack")
	if err != nil {
		return Rows{}, err
	}
	buf := make([]byte, c.Params.PageSize())
	for i := 0; i < pages; i++ {
		gen(i, buf)
		var werr error
		f.AppendPage(buf, func(err error) { werr = err })
		c.Run()
		if werr != nil {
			return Rows{}, fmt.Errorf("fig21 seeding page %d: %w", i, werr)
		}
	}
	isp, err := search.SearchISP(c, 0, 0, f, []byte(needle))
	if err != nil {
		return Rows{}, err
	}

	// --- SW grep: a p.CPU host scanning what it streams off a device --
	grep := func(dev func(*sim.Engine) (search.DeviceReader, error)) (*search.Result, error) {
		eng := sim.NewEngine()
		cpu, err := hostmodel.New(eng, "host", p.CPU)
		if err != nil {
			return nil, err
		}
		d, err := dev(eng)
		if err != nil {
			return nil, err
		}
		return search.SearchSoftware(eng, cpu, d, pages, p.PageSize(), gen, []byte(needle), 16)
	}
	sw, err := grep(func(eng *sim.Engine) (search.DeviceReader, error) {
		return altstore.NewSSD(eng, "m2", altstore.DefaultSSD())
	})
	if err != nil {
		return Rows{}, err
	}
	hw, err := grep(func(eng *sim.Engine) (search.DeviceReader, error) {
		return altstore.NewHDD(eng, "disk", altstore.DefaultHDD())
	})
	if err != nil {
		return Rows{}, err
	}

	// All three methods must find the identical match set.
	if len(sw.Matches) != len(isp.Matches) || len(hw.Matches) != len(isp.Matches) {
		return Rows{}, fmt.Errorf("fig21: match counts diverge: isp=%d ssd=%d hdd=%d",
			len(isp.Matches), len(sw.Matches), len(hw.Matches))
	}
	out := Rows{Title: "Figure 21: string search bandwidth and CPU utilization", Key: "Method",
		Cols: []Col{{"MB/s", "%.0f"}, {"CPU util %", "%.1f"}, {"Matches", "%.0f"}}}
	for _, m := range []struct {
		name string
		r    *search.Result
	}{{"Flash/ISP", isp}, {"Flash/SW Grep", sw}, {"HDD/SW Grep", hw}} {
		out.add(m.name, m.r.Throughput/1e6, m.r.CPUUtil*100, float64(len(m.r.Matches)))
	}
	return out, nil
}
