package search

import (
	"fmt"
	"sort"

	"repro/internal/altstore"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

// Result reports one search run.
type Result struct {
	Matches    []int64  // match start offsets, sorted
	Bytes      int64    // haystack bytes scanned
	Elapsed    sim.Time // simulated time of the scan phase
	Throughput float64  // bytes/second
	CPUUtil    float64  // host CPU utilization during the scan
}

// GrepCPUPerByte is the software scan cost in nanoseconds per byte:
// calibrated so that grep-at-600MB/s consumes ~65% of a 24-core host
// and grep-on-HDD ~13-16% (paper Figure 21).
const GrepCPUPerByte = 26

// SearchSoftware runs the grep baseline: the host streams the haystack
// sequentially from dev and scans it in software with `threads` worker
// threads. gen supplies page contents (the same bytes the in-store scan
// reads) so results are comparable.
func SearchSoftware(eng *sim.Engine, cpu *hostmodel.CPU, dev altstore.Device,
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
		// matches are found; segLimit deduplicates them.
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
		return nil, fmt.Errorf("search: %d software shards: %w", remaining, sim.ErrUnfinished)
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
