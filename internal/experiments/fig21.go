package experiments

import (
	"fmt"
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
	isp, err := fig21ISP(p, pages, gen, []byte(needle))
	if err != nil {
		return Rows{}, err
	}

	// --- SW grep: a p.CPU host scanning what it streams off a device --
	grep := func(dev func(*sim.Engine) (altstore.Device, error)) (*search.Result, error) {
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
	sw, err := grep(func(eng *sim.Engine) (altstore.Device, error) {
		return altstore.NewSSD(eng, "m2", altstore.DefaultSSD())
	})
	if err != nil {
		return Rows{}, err
	}
	hw, err := grep(func(eng *sim.Engine) (altstore.Device, error) {
		return altstore.NewHDD(eng, "disk", altstore.DefaultHDD())
	})
	if err != nil {
		return Rows{}, err
	}

	// All three methods must find the identical match set.
	if !slices.Equal(sw.Matches, isp.Matches) || !slices.Equal(hw.Matches, isp.Matches) {
		return Rows{}, fmt.Errorf("match sets diverge: isp=%d ssd=%d hdd=%d matches",
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

// fig21ISP scans the haystack in store: a single-card RFS file (the
// paper's 1.1 GB/s is one card's), searched by ispvol's engine through
// the scheduler's Accel class. A page the engine could not read fails
// the figure.
func fig21ISP(p core.Params, pages int, gen workload.PageFiller, needle []byte) (*search.Result, error) {
	p.Nodes = 1
	// No RFS in the spec: the haystack lives on a single-card RFS, not
	// the cluster RFS the stack would mount.
	st, err := workload.Build(workload.StackSpec{Params: p, Sched: sched.DefaultConfig()})
	if err != nil {
		return nil, err
	}
	sys, err := ispvol.New(st.C, st.S, nil, ispvol.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fs, err := rfs.New(st.C.Node(0).NewIface(0, "fs"), p.Geometry, rfs.DefaultConfig())
	if err != nil {
		return nil, err
	}
	f, err := fs.Create("haystack")
	if err != nil {
		return nil, err
	}
	if err := st.SeedFile(f.AppendPage, pages, gen); err != nil {
		return nil, err
	}
	var res *ispvol.SearchResult
	sys.Search(0, ispvol.File(f), needle, ispvol.InStore, func(r *ispvol.SearchResult, e error) { res, err = r, e })
	st.C.Run()
	switch {
	case err != nil:
		return nil, err
	case res == nil:
		return nil, fmt.Errorf("in-store search: %w", sim.ErrUnfinished)
	case res.FailedPages != 0:
		return nil, fmt.Errorf("in-store search: %d of %d pages failed", res.FailedPages, res.Pages)
	}
	// Only match positions reach the host: its CPU stays idle.
	return &search.Result{Matches: res.Matches, Bytes: res.Bytes, Elapsed: res.Elapsed,
		Throughput: res.Throughput, CPUUtil: st.C.Node(0).CPU.Utilization()}, nil
}
