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
	Errors      int64
	Elapsed     sim.Time
	PerSec      float64
	BestID      int
	BestDist    int
}

func finishResult(r *Result, elapsed sim.Time) {
	r.Elapsed = elapsed
	if elapsed > 0 {
		r.PerSec = float64(r.Comparisons) / elapsed.Seconds()
	}
}

// RunISP streams candidate addresses to the node's in-store processor,
// which reads each item at flash bandwidth and Hamming-compares it
// against the query in-line (paper baseline; Figures 16 and 19). A
// non-nil throttle pipe caps device bandwidth (the "Baseline-T"
// configuration that matches the off-the-shelf SSD's 600 MB/s).
func RunISP(c *core.Cluster, nodeID int, candidates []core.PageAddr, ids []int,
	query []byte, throttle *sim.Pipe) (*Result, error) {

	if len(candidates) != len(ids) {
		return nil, fmt.Errorf("lsh: %d candidates but %d ids", len(candidates), len(ids))
	}
	node := c.Node(nodeID)
	res := &Result{BestID: -1, BestDist: int(^uint(0) >> 1)}
	if len(candidates) == 0 {
		return res, nil
	}
	// Engine sizing: enough request streams to saturate both cards.
	const engines = 16
	const window = 8
	start := c.Eng.Now()
	next := 0
	remaining := 0

	compare := func(i int, data []byte) {
		d := HammingDistance(query, data)
		if d < res.BestDist || (d == res.BestDist && ids[i] < res.BestID) {
			res.BestID, res.BestDist = ids[i], d
		}
		res.Comparisons++
	}

	for e := 0; e < engines; e++ {
		remaining++
		inflight := 0
		engineDone := false
		var pump func()
		maybeFinish := func() {
			if !engineDone && inflight == 0 && next >= len(candidates) {
				engineDone = true
				remaining--
			}
		}
		pump = func() {
			for inflight < window && next < len(candidates) {
				i := next
				next++
				inflight++
				node.ISPRead(candidates[i], func(data []byte, err error) {
					// finishOne runs when this candidate is fully
					// processed (including the throttle stage).
					finishOne := func() {
						inflight--
						pump()
						maybeFinish()
					}
					if err != nil {
						res.Errors++
						finishOne()
						return
					}
					if throttle != nil {
						throttle.Transfer(len(data), func() {
							compare(i, data)
							finishOne()
						})
						return
					}
					// The ISP compares at stream rate: no extra time.
					compare(i, data)
					finishOne()
				})
			}
		}
		pump()
		maybeFinish()
	}
	c.Run()
	if remaining != 0 {
		return nil, fmt.Errorf("lsh: %d ISP engines never finished", remaining)
	}
	finishResult(res, c.Eng.Now()-start)
	return res, nil
}

// RunHostDRAM is the ram-cloud configuration: the whole dataset in
// host DRAM, `threads` software threads scanning candidates
// (Figure 16's H-DRAM line).
func RunHostDRAM(eng *sim.Engine, cpu *hostmodel.CPU, items map[int][]byte,
	candidates []int, query []byte, threads int) (*Result, error) {

	res := &Result{BestID: -1, BestDist: int(^uint(0) >> 1)}
	if threads <= 0 {
		threads = 1
	}
	start := eng.Now()
	next := 0
	remaining := 0
	for w := 0; w < threads; w++ {
		th := cpu.NewThread()
		remaining++
		var step func()
		step = func() {
			if next >= len(candidates) {
				remaining--
				return
			}
			id := candidates[next]
			next++
			item := items[id]
			// Fetch from DRAM (shared bandwidth), then compare on core.
			cpu.ReadDRAM(len(item), func() {
				th.Do(HammingCPUPerPage, func() {
					d := HammingDistance(query, item)
					if d < res.BestDist || (d == res.BestDist && id < res.BestID) {
						res.BestID, res.BestDist = id, d
					}
					res.Comparisons++
					step()
				})
			})
		}
		step()
	}
	eng.Run()
	if remaining != 0 {
		return nil, fmt.Errorf("lsh: %d DRAM threads never finished", remaining)
	}
	finishResult(res, eng.Now()-start)
	return res, nil
}

// RunHostFlash is the same-device-without-ISP configuration: host
// threads read candidate pages from the (optionally throttled) BlueDBM
// device over PCIe and compare in software (Figure 19's BlueDBM+SW).
func RunHostFlash(c *core.Cluster, nodeID int, candidates []core.PageAddr, ids []int,
	query []byte, threads int, throttle *sim.Pipe) (*Result, error) {

	node := c.Node(nodeID)
	res := &Result{BestID: -1, BestDist: int(^uint(0) >> 1)}
	if threads <= 0 {
		threads = 1
	}
	start := c.Eng.Now()
	next := 0
	remaining := 0
	for w := 0; w < threads; w++ {
		th := node.CPU.NewThread()
		remaining++
		var step func()
		step = func() {
			if next >= len(candidates) {
				remaining--
				return
			}
			i := next
			next++
			a := candidates[i]
			node.ReadLocal(a.Card, a.Addr, func(data []byte, err error) {
				if err != nil {
					step()
					return
				}
				deliver := func() {
					// PCIe DMA to the host, then software compare.
					node.Host.AcquireReadBuffer(len(data), func(buf int) {
						node.Host.ReleaseReadBuffer(buf)
						th.Do(HammingCPUPerPage, func() {
							d := HammingDistance(query, data)
							if d < res.BestDist || (d == res.BestDist && ids[i] < res.BestID) {
								res.BestID, res.BestDist = ids[i], d
							}
							res.Comparisons++
							step()
						})
					}, func(buf int) {
						node.Host.DeviceWriteChunk(buf, len(data), true)
					})
				}
				if throttle != nil {
					// Throttled device: pages cross the cap with the
					// host command overhead added.
					throttle.Transfer(len(data)+HostCmdOverheadBytes, deliver)
					return
				}
				deliver()
			})
		}
		step()
	}
	c.Run()
	if remaining != 0 {
		return nil, fmt.Errorf("lsh: %d host-flash threads never finished", remaining)
	}
	finishResult(res, c.Eng.Now()-start)
	return res, nil
}

// SecondaryDev abstracts the slow tier of a mixed DRAM working set.
type SecondaryDev interface {
	Read(size int, sequential bool, done func(error))
}

// RunMixedDRAM is Figure 17's ram-cloud-with-spill configuration: a
// fraction (pctSecondary %) of accesses miss DRAM and fault in from a
// secondary device (SSD or disk), paying the kernel fault penalty.
func RunMixedDRAM(eng *sim.Engine, cpu *hostmodel.CPU, dev SecondaryDev,
	items map[int][]byte, candidates []int, query []byte, threads, pctSecondary int,
	seed uint64) (*Result, error) {

	res := &Result{BestID: -1, BestDist: int(^uint(0) >> 1)}
	if threads <= 0 {
		threads = 1
	}
	rng := sim.NewRNG(seed)
	// Pre-draw which accesses miss, so thread interleaving cannot
	// change the workload.
	miss := make([]bool, len(candidates))
	for i := range miss {
		miss[i] = rng.Intn(100) < pctSecondary
	}
	start := eng.Now()
	next := 0
	remaining := 0
	var devErr error
	for w := 0; w < threads; w++ {
		th := cpu.NewThread()
		remaining++
		var step func()
		step = func() {
			if next >= len(candidates) {
				remaining--
				return
			}
			i := next
			next++
			id := candidates[i]
			item := items[id]
			compare := func() {
				th.Do(HammingCPUPerPage, func() {
					d := HammingDistance(query, item)
					if d < res.BestDist || (d == res.BestDist && id < res.BestID) {
						res.BestID, res.BestDist = id, d
					}
					res.Comparisons++
					step()
				})
			}
			if miss[i] {
				dev.Read(len(item), false, func(err error) {
					if err != nil {
						if devErr == nil {
							devErr = err
						}
						remaining--
						return
					}
					eng.After(FaultPenalty, compare)
				})
				return
			}
			cpu.ReadDRAM(len(item), compare)
		}
		step()
	}
	eng.Run()
	if devErr != nil {
		return nil, fmt.Errorf("lsh: secondary device: %w", devErr)
	}
	if remaining != 0 {
		return nil, fmt.Errorf("lsh: %d mixed threads never finished", remaining)
	}
	finishResult(res, eng.Now()-start)
	return res, nil
}

// RunSSD is Figure 18's off-the-shelf configuration: host threads read
// every candidate from the M.2 SSD (randomly, or artificially
// sequentialized) and compare in software.
func RunSSD(eng *sim.Engine, cpu *hostmodel.CPU, ssd *altstore.SSD,
	items map[int][]byte, candidates []int, query []byte, threads int,
	sequential bool) (*Result, error) {

	res := &Result{BestID: -1, BestDist: int(^uint(0) >> 1)}
	if threads <= 0 {
		threads = 1
	}
	start := eng.Now()
	next := 0
	remaining := 0
	var devErr error
	for w := 0; w < threads; w++ {
		th := cpu.NewThread()
		remaining++
		var step func()
		step = func() {
			if next >= len(candidates) {
				remaining--
				return
			}
			id := candidates[next]
			next++
			item := items[id]
			ssd.Read(len(item), sequential, func(err error) {
				if err != nil {
					if devErr == nil {
						devErr = err
					}
					remaining--
					return
				}
				eng.After(ReadSyscallOverhead, func() {
					th.Do(HammingCPUPerPage, func() {
						d := HammingDistance(query, item)
						if d < res.BestDist || (d == res.BestDist && id < res.BestID) {
							res.BestID, res.BestDist = id, d
						}
						res.Comparisons++
						step()
					})
				})
			})
		}
		step()
	}
	eng.Run()
	if devErr != nil {
		return nil, fmt.Errorf("lsh: SSD: %w", devErr)
	}
	if remaining != 0 {
		return nil, fmt.Errorf("lsh: %d SSD threads never finished", remaining)
	}
	finishResult(res, eng.Now()-start)
	return res, nil
}
