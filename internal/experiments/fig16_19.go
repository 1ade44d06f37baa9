package experiments

import (
	"fmt"

	"repro/internal/accel/lsh"
	"repro/internal/altstore"
	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Shared nearest-neighbor workload sizing.
const (
	nnItems       = 320
	nnComparisons = 1400
	nnSeed        = 41
	// nnThrottle is the off-the-shelf SSD's 600 MB/s, the rate the
	// throttled ISP baseline is held to.
	nnThrottle = 600_000_000
)

// nnCluster builds a single-node appliance on p with the dataset
// seeded at linear pages, and the candidate stream: round-robin over
// the dataset, nnComparisons long. Figure 19's host arm reads it.
func nnCluster(p core.Params) (*core.Cluster, []core.PageAddr, []int, []byte, error) {
	p.Nodes = 1
	c, err := newCluster(p)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	items, query, err := workload.NearDuplicateSet(nnItems, p.PageSize(), 7, 40, nnSeed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if err := c.SeedLinear(0, nnItems, func(idx int, page []byte) {
		copy(page, items[idx])
	}); err != nil {
		return nil, nil, nil, nil, err
	}
	addrs := make([]core.PageAddr, nnComparisons)
	ids := nnCandidates()
	for i := range addrs {
		addrs[i] = core.LinearPage(c.Params, 0, ids[i])
	}
	return c, addrs, ids, query, nil
}

// nnCandidates is the candidate id stream.
func nnCandidates() []int {
	ids := make([]int, nnComparisons)
	for i := range ids {
		ids[i] = i % nnItems
	}
	return ids
}

// nnHost runs one host-software measurement with no appliance: a fresh
// engine, a p.CPU host and the DRAM-resident dataset.
func nnHost(p core.Params, run func(eng *sim.Engine, cpu *hostmodel.CPU, items map[int][]byte, query []byte) (*lsh.Result, error)) (float64, error) {
	eng := sim.NewEngine()
	cpu, err := hostmodel.New(eng, "host", p.CPU)
	if err != nil {
		return 0, err
	}
	items, query, err := workload.NearDuplicateSet(nnItems, p.PageSize(), 7, 40, nnSeed)
	if err != nil {
		return 0, err
	}
	res, err := run(eng, cpu, items, query)
	if err != nil {
		return 0, err
	}
	return res.PerSec / 1000, nil
}

// ispRate is the in-store engine's rate on p: ispvol's nearest-neighbour
// query over the dataset in one cluster-RFS file, which stripes the
// items over every chip of the node. A candidate page the engine could
// not read fails the figure.
func ispRate(p core.Params) (float64, error) {
	p.Nodes = 1
	icfg, rcfg := ispvol.DefaultConfig(), rfs.DefaultConfig()
	st, err := workload.Build(workload.StackSpec{Params: p, Sched: sched.DefaultConfig(), RFS: &rcfg, ISP: &icfg})
	if err != nil {
		return 0, err
	}
	items, query, err := workload.NearDuplicateSet(nnItems, p.PageSize(), 7, 40, nnSeed)
	if err != nil {
		return 0, err
	}
	f, err := st.FS.Create("items")
	if err != nil {
		return 0, err
	}
	if err := st.SeedFile(f.AppendPage, nnItems, func(idx int, page []byte) { copy(page, items[idx]) }); err != nil {
		return 0, err
	}
	ids := nnCandidates()
	var res *ispvol.NNResult
	st.ISP.NearestNeighbor(0, ispvol.File(f), query, ids, ids, ispvol.InStore, func(r *ispvol.NNResult, e error) { res, err = r, e })
	st.C.Run()
	switch {
	case err != nil:
		return 0, err
	case res == nil:
		return 0, fmt.Errorf("nearest-neighbour query: %w", sim.ErrUnfinished)
	case res.FailedPages != 0:
		return 0, fmt.Errorf("nearest-neighbour query: %d of %d candidate pages failed", res.FailedPages, res.Pages)
	}
	return res.CmpPerSec / 1000, nil
}

// throttled is p as Baseline-T, the device held to the off-the-shelf
// SSD's 600 MB/s: one card whose controller link runs at that rate, a
// single stream like the SSD's and like the pipe Figure 19's host arm
// reads through. Two cards at half the rate each would cap the node
// only while both are busy; the candidate stream puts 704 pages on one
// card and 696 on the other, and the last 8 would cross one link alone.
func throttled(p core.Params) core.Params {
	p.CardsPerNode = 1
	p.Controller.LinkBytesPerSec = nnThrottle
	return p
}

func dramRate(p core.Params, threads int) (float64, error) {
	return nnHost(p, func(eng *sim.Engine, cpu *hostmodel.CPU, items map[int][]byte, query []byte) (*lsh.Result, error) {
		return lsh.RunHostDRAM(eng, cpu, items, nnCandidates(), query, threads)
	})
}

// nnFigure is a nearest-neighbor figure: a row per thread count of
// row's measurement of each series, in thousands of Hamming
// comparisons per second.
func nnFigure(title string, series []string, threads []int, row func(th int) ([]float64, error)) (Rows, error) {
	out := Rows{Title: title + " (K comparisons/s)", Key: "Threads", Cols: cols("%.0f", series...)}
	for _, th := range threads {
		vals, err := row(th)
		if err != nil {
			return Rows{}, err
		}
		out.add(fmt.Sprint(th), vals...)
	}
	return out, nil
}

// fig16 reproduces Figure 16: Baseline (BlueDBM ISP), Baseline-T
// (throttled to the off-the-shelf SSD's 600 MB/s) and H-DRAM
// (multithreaded software on DRAM-resident data) across thread counts.
func fig16(p core.Params) (Rows, error) {
	base, err := ispRate(p)
	if err != nil {
		return Rows{}, err
	}
	thr, err := ispRate(throttled(p))
	if err != nil {
		return Rows{}, err
	}
	return nnFigure("Figure 16: nearest neighbor, BlueDBM up to two nodes",
		[]string{"DRAM", "1 Node", "Throttled"}, []int{2, 4, 6, 8, 10, 12, 14, 16}, func(th int) ([]float64, error) {
			d, err := dramRate(p, th)
			return []float64{d, base, thr}, err
		})
}

// fig17 reproduces Figure 17: mostly-DRAM configurations. The ISP
// series is the throttled baseline; the mixed series fault 10% of
// accesses to an SSD or 5% to a disk.
func fig17(p core.Params) (Rows, error) {
	thr, err := ispRate(throttled(p))
	if err != nil {
		return Rows{}, err
	}
	mixed := func(th, pct int, dev func(*sim.Engine) (altstore.Device, error)) (float64, error) {
		return nnHost(p, func(eng *sim.Engine, cpu *hostmodel.CPU, items map[int][]byte, query []byte) (*lsh.Result, error) {
			d, err := dev(eng)
			if err != nil {
				return nil, err
			}
			return lsh.RunMixedDRAM(eng, cpu, d, items, nnCandidates(), query, th, pct, 5)
		})
	}
	return nnFigure("Figure 17: nearest neighbor with mostly DRAM",
		[]string{"DRAM", "ISP", "10% Flash", "5% Disk"}, []int{1, 2, 3, 4, 5, 6, 7, 8}, func(th int) ([]float64, error) {
			d, err := dramRate(p, th)
			if err != nil {
				return nil, err
			}
			fl, err := mixed(th, 10, func(eng *sim.Engine) (altstore.Device, error) {
				return altstore.NewSSD(eng, "m2", altstore.DefaultSSD())
			})
			if err != nil {
				return nil, err
			}
			dk, err := mixed(th, 5, func(eng *sim.Engine) (altstore.Device, error) {
				return altstore.NewHDD(eng, "disk", altstore.DefaultHDD())
			})
			return []float64{d, thr, fl, dk}, err
		})
}

// fig18 reproduces Figure 18: the off-the-shelf SSD under random
// (H-RFlash) and artificially sequential (H-SFlash) access, against
// the throttled ISP baseline.
func fig18(p core.Params) (Rows, error) {
	thr, err := ispRate(throttled(p))
	if err != nil {
		return Rows{}, err
	}
	ssd := func(th int, seq bool) (float64, error) {
		return nnHost(p, func(eng *sim.Engine, cpu *hostmodel.CPU, items map[int][]byte, query []byte) (*lsh.Result, error) {
			ssd, err := altstore.NewSSD(eng, "m2", altstore.DefaultSSD())
			if err != nil {
				return nil, err
			}
			return lsh.RunSSD(eng, cpu, ssd, items, nnCandidates(), query, th, seq)
		})
	}
	return nnFigure("Figure 18: nearest neighbor with off-the-shelf SSD",
		[]string{"ISP", "Seq Flash", "Full Flash"}, []int{1, 2, 3, 4, 5, 6, 7, 8}, func(th int) ([]float64, error) {
			rnd, err := ssd(th, false)
			if err != nil {
				return nil, err
			}
			seq, err := ssd(th, true)
			return []float64{thr, seq, rnd}, err
		})
}

// fig19 reproduces Figure 19: in-store processing versus host software
// on the same throttled device (the accelerator advantage, >= 20%).
func fig19(p core.Params) (Rows, error) {
	thr, err := ispRate(throttled(p))
	if err != nil {
		return Rows{}, err
	}
	return nnFigure("Figure 19: nearest neighbor with in-store processing",
		[]string{"ISP", "BlueDBM+SW"}, []int{1, 2, 3, 4, 5, 6, 7, 8}, func(th int) ([]float64, error) {
			c, addrs, ids, query, err := nnCluster(p)
			if err != nil {
				return nil, err
			}
			throttle := sim.NewPipe(c.Eng, "throttle", nnThrottle, 0)
			sw, err := lsh.RunHostFlash(c, 0, addrs, ids, query, th, throttle)
			if err != nil {
				return nil, err
			}
			return []float64{thr, sw.PerSec / 1000}, nil
		})
}
