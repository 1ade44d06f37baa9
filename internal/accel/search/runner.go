package search

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hostmodel"
	"repro/internal/nand"
	"repro/internal/rfs"
	"repro/internal/sim"
)

// EnginesPerBus is the paper's sizing: "Since 4 read commands can
// saturate a single flash bus, we use 4 engines per bus to maximize
// the flash bandwidth" (§7.3).
const EnginesPerBus = 4

// readWindow is each engine's in-flight read depth. It must span more
// chips than the file striping period, or engines whose segments align
// on the same chips convoy on a few buses while others idle.
const readWindow = 8

// Result reports one search run.
type Result struct {
	Matches    []int64  // match start offsets, sorted
	Bytes      int64    // haystack bytes scanned
	Elapsed    sim.Time // simulated time of the scan phase
	Throughput float64  // bytes/second
	CPUUtil    float64  // host CPU utilization during the scan
}

// SearchISP runs the hardware-accelerated search: MP engines inside
// the storage device scan a file at flash bandwidth. The host's role
// is only setup (pattern DMA + physical address stream from the file
// system) and receiving match positions.
func SearchISP(c *core.Cluster, nodeID, card int, f *rfs.File, needle []byte) (*Result, error) {
	pat, err := Compile(needle)
	if err != nil {
		return nil, err
	}
	paddrs, err := f.PhysicalAddrs()
	if err != nil {
		return nil, err
	}
	addrs := make([]nand.Addr, len(paddrs))
	for i, a := range paddrs {
		// This runner drives one card's private engine interfaces; a
		// file striped anywhere else must go through the distributed
		// ISP layer (ispvol.SearchFile) instead of being silently read
		// at the wrong location.
		if a.Node != nodeID || a.Card != card {
			return nil, fmt.Errorf("search: file page %d lives on n%d.card%d, not n%d.card%d; use ispvol.SearchFile for cluster files",
				i, a.Node, a.Card, nodeID, card)
		}
		addrs[i] = a.Addr
	}
	if len(addrs) == 0 {
		return &Result{}, nil
	}
	node := c.Node(nodeID)
	geo := c.Params.Geometry
	pageSize := geo.PageSize
	engines := EnginesPerBus * geo.Buses
	if engines > len(addrs) {
		engines = len(addrs)
	}

	// Host setup: transfer the pattern + MP constants to the device.
	setupDone := false
	node.Host.ChargeSoftware(func() {
		node.Host.RPC(func() {
			node.Host.DeviceReadBuffer(len(needle)+4*len(pat.fail), func() {
				setupDone = true
			})
		})
	})
	c.Run()
	if !setupDone {
		return nil, fmt.Errorf("search: accelerator setup did not complete")
	}

	// Divide the haystack into contiguous page segments, one per
	// engine, overlapping by one page so cross-boundary matches are
	// found exactly once. Segment length is nudged to be coprime with
	// the chip count: the file system stripes consecutive pages across
	// chips, and equal segment starts would put every engine on the
	// same chip at the same moment, convoying on a few buses.
	per := (len(addrs) + engines - 1) / engines
	chips := geo.Buses * geo.ChipsPerBus
	for per > 0 && gcd(per, chips) != 1 {
		per++
	}
	var all []int64
	remaining := 0
	start := c.Eng.Now()

	for e := 0; e < engines; e++ {
		firstPage := e * per
		if firstPage >= len(addrs) {
			break
		}
		lastPage := firstPage + per // exclusive; +1 page of overlap below
		if lastPage > len(addrs) {
			lastPage = len(addrs)
		}
		overlapEnd := lastPage
		if overlapEnd < len(addrs) {
			overlapEnd++ // read one page into the neighbor's segment
		}
		segStart := int64(firstPage) * int64(pageSize)
		segLimit := int64(lastPage) * int64(pageSize) // matches must start before this

		iface := node.NewIface(card, fmt.Sprintf("mp%d", e))
		sc := pat.NewScanner()
		sc.Reset(segStart)
		remaining++
		sim.Lanes(overlapEnd-firstPage, readWindow, func(_, i int, next func()) {
			idx := firstPage + i
			iface.ReadPhysical(addrs[idx], func(data []byte, err error) {
				if err != nil {
					// A failed page is skipped (its matches are lost);
					// hardware would report it out of band.
					sc.Reset(int64(idx+1) * int64(pageSize))
				} else {
					// The MP engine scans at line rate: no extra time.
					sc.Feed(data, func(pos int64) {
						if pos >= segStart && pos < segLimit {
							all = append(all, pos)
						}
					})
				}
				next()
			})
		}, func() { remaining-- })
	}
	c.Run()
	if remaining != 0 {
		return nil, fmt.Errorf("search: %d engines never finished", remaining)
	}
	elapsed := c.Eng.Now() - start
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	bytes := int64(len(addrs)) * int64(pageSize)
	res := &Result{
		Matches: all,
		Bytes:   bytes,
		Elapsed: elapsed,
	}
	if elapsed > 0 {
		res.Throughput = float64(bytes) / elapsed.Seconds()
	}
	// Only match positions return to the host: a tiny DMA, then a
	// negligible CPU charge. Utilization stays ~0.
	res.CPUUtil = node.CPU.Utilization()
	return res, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// DeviceReader abstracts the comparator devices (altstore SSD / HDD).
type DeviceReader interface {
	Read(size int, sequential bool, done func(error))
}

// GrepCPUPerByte is the software scan cost in nanoseconds per byte:
// calibrated so that grep-at-600MB/s consumes ~65% of a 24-core host
// and grep-on-HDD ~13-16% (paper Figure 21).
const GrepCPUPerByte = 26

// SearchSoftware runs the grep baseline: the host streams the haystack
// sequentially from dev and scans it in software with `threads` worker
// threads. gen supplies page contents (the same bytes the ISP path
// scanned) so results are comparable.
func SearchSoftware(eng *sim.Engine, cpu *hostmodel.CPU, dev DeviceReader,
	pages, pageSize int, gen func(idx int, page []byte), needle []byte, threads int) (*Result, error) {

	pat, err := Compile(needle)
	if err != nil {
		return nil, err
	}
	workers := cpu.NewThreads(threads)
	// Page i belongs to worker i%threads; give each scanner a stride-
	// aware offset by scanning page-contiguous shards.
	perShard := (pages + len(workers) - 1) / len(workers)

	var all []int64
	start := eng.Now()
	remaining := 0
	var devErr error
	cost := sim.Time(pageSize) * GrepCPUPerByte * sim.Nanosecond

	for w, th := range workers {
		first := w * perShard
		if first >= pages {
			break
		}
		last := first + perShard
		if last > pages {
			last = pages
		}
		// One page of overlap into the next shard so cross-boundary
		// matches are found (same scheme as the hardware engines);
		// segLimit deduplicates them.
		overlapEnd := last
		if overlapEnd < pages {
			overlapEnd++
		}
		segLimit := int64(last) * int64(pageSize)
		sc := pat.NewScanner()
		sc.Reset(int64(first) * int64(pageSize))
		remaining++
		sim.Lanes(overlapEnd-first, 1, func(_, i int, next func()) {
			idx := first + i
			dev.Read(pageSize, true, func(err error) {
				if err != nil {
					// The shard stops here and never joins.
					if devErr == nil {
						devErr = err
					}
					return
				}
				th.Do(cost, func() {
					page := make([]byte, pageSize)
					if gen != nil {
						gen(idx, page)
					}
					sc.Feed(page, func(pos int64) {
						if pos < segLimit {
							all = append(all, pos)
						}
					})
					next()
				})
			})
		}, func() { remaining-- })
	}
	eng.Run()
	if devErr != nil {
		return nil, fmt.Errorf("search: device: %w", devErr)
	}
	if remaining != 0 {
		return nil, fmt.Errorf("search: %d software shards never finished", remaining)
	}
	elapsed := eng.Now() - start
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	bytes := int64(pages) * int64(pageSize)
	res := &Result{Matches: all, Bytes: bytes, Elapsed: elapsed, CPUUtil: cpu.Utilization()}
	if elapsed > 0 {
		res.Throughput = float64(bytes) / elapsed.Seconds()
	}
	return res, nil
}
