package main

import "repro/internal/sim"

// The five workloads. Sizes are constants: a run does the same page
// ops on every commit, so simulated-time metrics compare exactly and
// host time moves only with the simulator's speed. The window is
// rate × -seconds page ops, with each rate set so that the window
// took about -seconds of wall clock on the 2-core machine the
// benchmark was defined on (whose speed itself wandered by ±15%).
var workloads = []*workloadDef{
	{
		name: "local-read",
		why:  "4 nodes read their own flash through sched: fabric idle, so the cost is the host read path down to NAND",
		build: func(seed uint64, sz sizing) (*instance, error) {
			dims := readDims{nodes: 4, pagesPerNode: 2048, probeEvery: 50 * sim.Microsecond, warm: 20000, rate: 45000}
			if sz.smoke {
				dims.pagesPerNode, dims.warm = 256, 1000
			}
			return buildReads(dims, false, seed, sz)
		},
	},
	{
		name: "remote-read",
		why:  "16-node ring, every read targets another node (mean 4 hops): fabric per-segment, per-hop events dominate",
		build: func(seed uint64, sz sizing) (*instance, error) {
			dims := readDims{nodes: 16, pagesPerNode: 512, probeEvery: 50 * sim.Microsecond, warm: 20000, rate: 25000}
			if sz.smoke {
				dims.pagesPerNode, dims.warm = 64, 1500
			}
			return buildReads(dims, true, seed, sz)
		},
	},
	{
		name: "volume-churn",
		why:  "4-node volume over per-card FTLs, 70% overwrites: FTL GC, NAND program/erase and the Background token budget beside reads",
		build: func(seed uint64, sz sizing) (*instance, error) {
			dims := volDims{nodes: 4, blocksPerChip: 8, stableShare: 1.0 / 16, age: 4500, writeShare: 0.70, probeEvery: 2 * sim.Millisecond, warm: 15000, rate: 16500}
			if sz.smoke {
				dims.nodes, dims.blocksPerChip, dims.age, dims.warm = 2, 2, 550, 400
			}
			return buildVolume(dims, seed, sz)
		},
	},
	{
		name: "cache-hotcold",
		why:  "the same volume under the host-DRAM cache, 90% of accesses to a hot set that fits: cache index, CLOCK, flush and invalidation do the work",
		build: func(seed uint64, sz sizing) (*instance, error) {
			dims := volDims{nodes: 4, blocksPerChip: 8, cachePages: 640, age: 5000, writeShare: 0.05, probeEvery: 100 * sim.Microsecond, warm: 100000, rate: 120000}
			if sz.smoke {
				dims.blocksPerChip, dims.cachePages, dims.age, dims.warm = 2, 160, 0, 3000
			}
			return buildVolume(dims, seed, sz)
		},
	},
	{
		name: "file-scan",
		why:  "in-store SearchFile/TableScanFile over cluster-RFS files beside a churning file: rfs, ispvol, isp and the accel kernels work, hostif hardly at all",
		build: func(seed uint64, sz sizing) (*instance, error) {
			dims := scanDims{nodes: 4, blocksPerChip: 8, scanPages: 1024, churnPages: 2048, age: 1600, plants: 64, probeEvery: 200 * sim.Microsecond, warm: 60000, rate: 33000}
			if sz.smoke {
				dims.blocksPerChip, dims.scanPages, dims.churnPages, dims.age, dims.plants, dims.warm = 4, 64, 256, 128, 4, 2000
			}
			return buildFileScan(dims, seed, sz)
		},
	},
}

// smokeWindow is the window of every workload at -size smoke.
const smokeWindow = 2000

func (sz sizing) window(rate int64) int64 {
	w := rate * int64(sz.seconds)
	if sz.smoke {
		w = smokeWindow
	}
	if sz.short {
		w /= 4
	}
	return w
}

// quarter is the same sizing with a quarter of the window.
func (sz sizing) quarter() sizing {
	sz.short = true
	return sz
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
