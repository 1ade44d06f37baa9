package lsh

import (
	"fmt"

	"repro/internal/altstore"
	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

// Calibrated host-software costs, each fitted to the paper figure its
// comment names.
const (
	// HammingCPUPerPage is one core's cost to Hamming-compare an 8 KB
	// item: with it, 4 host threads roughly match the 2.4 GB/s ISP
	// baseline, as in Figure 16.
	HammingCPUPerPage = 22 * sim.Microsecond
	// HostCmdOverheadBytes models the per-command software/DMA overhead
	// of the host I/O path, expressed as extra bytes through the
	// device: it yields the ~20% ISP advantage of Figure 19.
	HostCmdOverheadBytes = 1700
	// FaultPenalty is the kernel overhead of faulting flash/disk pages
	// into a DRAM-resident working set (mmap thrashing), per access —
	// the effect behind Figure 17's collapse.
	FaultPenalty = 700 * sim.Microsecond
	// ReadSyscallOverhead is the per-read software cost of the direct
	// I/O path used against off-the-shelf devices (Figure 18).
	ReadSyscallOverhead = 10 * sim.Microsecond
)

// Result is one backend run.
type Result struct {
	Comparisons int64
	Elapsed     sim.Time
	PerSec      float64
	BestID      int
	BestDist    int
}

// scan is one backend run: the query, the result so far, and the first
// device error, which abandons the run.
type scan struct {
	query  []byte
	res    Result
	devErr error
}

func newScan(query []byte) *scan {
	return &scan{query: query, res: Result{BestID: -1, BestDist: int(^uint(0) >> 1)}}
}

// onThread is the software compare stage: one core's Hamming compare of
// item on th, then next. It keeps the closer, the lower id on a tie, so
// the order workers finish in cannot change the answer.
func (s *scan) onThread(th *hostmodel.Thread, id int, item []byte, next func()) {
	th.Do(HammingCPUPerPage, func() {
		d := HammingDistance(s.query, item)
		if d < s.res.BestDist || (d == s.res.BestDist && id < s.res.BestID) {
			s.res.BestID, s.res.BestDist = id, d
		}
		s.res.Comparisons++
		next()
	})
}

// fail records a device error. The worker that met it takes no further
// candidate, so the run does not join.
func (s *scan) fail(err error) {
	if s.devErr == nil {
		s.devErr = err
	}
}

// run is every backend but its fetch stage: `lanes` workers share n
// candidates (sim.Lanes), fetch brings candidate i to a comparator and
// calls next when the worker is free again, the engine drains, and the
// run is judged — a device error first, then the join.
func (s *scan) run(eng *sim.Engine, backend string, n, lanes int, fetch func(lane, i int, next func())) (*Result, error) {
	start := eng.Now()
	joined := false
	sim.Lanes(n, lanes, fetch, func() { joined = true })
	eng.Run()
	if s.devErr != nil {
		return nil, fmt.Errorf("lsh: %s: %w", backend, s.devErr)
	}
	if !joined {
		return nil, fmt.Errorf("lsh: %s workers: %w", backend, sim.ErrUnfinished)
	}
	s.res.Elapsed = eng.Now() - start
	if s.res.Elapsed > 0 {
		s.res.PerSec = float64(s.res.Comparisons) / s.res.Elapsed.Seconds()
	}
	return &s.res, nil
}

// RunHostDRAM is the ram-cloud configuration: the whole dataset in
// host DRAM, `threads` software threads scanning candidates
// (Figure 16's H-DRAM line).
func RunHostDRAM(eng *sim.Engine, cpu *hostmodel.CPU, items map[int][]byte,
	candidates []int, query []byte, threads int) (*Result, error) {

	s := newScan(query)
	ths := cpu.NewThreads(threads)
	return s.run(eng, "host DRAM", len(candidates), len(ths), func(lane, i int, next func()) {
		id := candidates[i]
		item := items[id]
		// Fetch from DRAM (shared bandwidth), then compare on core.
		cpu.ReadDRAM(len(item), func() { s.onThread(ths[lane], id, item, next) })
	})
}

// RunHostFlash is the same-device-without-ISP configuration: host
// threads read candidate pages from the (optionally throttled) BlueDBM
// device over PCIe and compare in software (Figure 19's BlueDBM+SW).
func RunHostFlash(c *core.Cluster, nodeID int, candidates []core.PageAddr, ids []int,
	query []byte, threads int, throttle *sim.Pipe) (*Result, error) {

	node := c.Node(nodeID)
	s := newScan(query)
	ths := node.CPU.NewThreads(threads)
	return s.run(c.Eng, "host flash", len(candidates), len(ths), func(lane, i int, next func()) {
		a := candidates[i]
		node.ISPReadDirect(a, func(data []byte, err error) {
			if err != nil {
				s.fail(err)
				return
			}
			// PCIe DMA to the host, then software compare.
			deliver := func() {
				node.Host.PageUp(len(data), func() { s.onThread(ths[lane], ids[i], data, next) })
			}
			if throttle != nil {
				// Throttled device: pages cross the cap with the
				// host command overhead added.
				throttle.Transfer(len(data)+HostCmdOverheadBytes, deliver)
				return
			}
			deliver()
		})
	})
}

// RunMixedDRAM is Figure 17's ram-cloud-with-spill configuration: a
// fraction (pctSecondary %) of accesses miss DRAM and fault in from a
// secondary device (SSD or disk), paying the kernel fault penalty.
func RunMixedDRAM(eng *sim.Engine, cpu *hostmodel.CPU, dev altstore.Device,
	items map[int][]byte, candidates []int, query []byte, threads, pctSecondary int,
	seed uint64) (*Result, error) {

	rng := sim.NewRNG(seed)
	// Pre-draw which accesses miss, so thread interleaving cannot
	// change the workload.
	miss := make([]bool, len(candidates))
	for i := range miss {
		miss[i] = rng.Intn(100) < pctSecondary
	}
	s := newScan(query)
	ths := cpu.NewThreads(threads)
	return s.run(eng, "mixed DRAM", len(candidates), len(ths), func(lane, i int, next func()) {
		id := candidates[i]
		item := items[id]
		compare := func() { s.onThread(ths[lane], id, item, next) }
		if !miss[i] {
			cpu.ReadDRAM(len(item), compare)
			return
		}
		dev.Read(len(item), false, func(err error) {
			if err != nil {
				s.fail(err)
				return
			}
			eng.After(FaultPenalty, compare)
		})
	})
}

// RunSSD is Figure 18's off-the-shelf configuration: host threads read
// every candidate from the M.2 SSD (randomly, or artificially
// sequentialized) and compare in software.
func RunSSD(eng *sim.Engine, cpu *hostmodel.CPU, ssd *altstore.SSD,
	items map[int][]byte, candidates []int, query []byte, threads int,
	sequential bool) (*Result, error) {

	s := newScan(query)
	ths := cpu.NewThreads(threads)
	return s.run(eng, "SSD", len(candidates), len(ths), func(lane, i int, next func()) {
		id := candidates[i]
		item := items[id]
		ssd.Read(len(item), sequential, func(err error) {
			if err != nil {
				s.fail(err)
				return
			}
			eng.After(ReadSyscallOverhead, func() { s.onThread(ths[lane], id, item, next) })
		})
	})
}
