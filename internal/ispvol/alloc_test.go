package ispvol_test

import (
	"runtime"
	"testing"

	"repro/internal/accel/tablescan"
	"repro/internal/alloctest"
	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/workload"
)

// fileQueries are the two queries of the Figure 8 path that bench's
// file-scan workload runs, over one file each, and the most allocations
// one warm query of theirs may make.
var fileQueries = []struct {
	name   string
	fill   func(ps int) workload.PageFiller
	query  func(sys *ispvol.System, f *rfs.File, done func())
	allocs float64
}{
	{"SearchFile", func(int) workload.PageFiller { return workload.RandomPages(9) },
		func(sys *ispvol.System, f *rfs.File, done func()) {
			sys.SearchFile(0, f, []byte("BLUEDBM"), func(*ispvol.SearchResult, error) { done() })
		}, 50},
	{"TableScanFile", recordFiller,
		func(sys *ispvol.System, f *rfs.File, done func()) {
			pred := tablescan.Predicate{Col: tablescan.ColA, Op: tablescan.OpLT, Value: 10}
			sys.TableScanFile(0, f, pred, func(*ispvol.ScanResult, error) { done() })
		}, 55},
}

// queryCost runs query n times to completion and returns the heap
// allocations and engine events one run costs.
func queryCost(c *core.Cluster, n int, query func(done func())) (allocs, events float64) {
	done := 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, fired := ms.Mallocs, c.Eng.Fired()
	for i := 0; i < n; i++ {
		query(func() { done++ })
		c.Run()
	}
	runtime.ReadMemStats(&ms)
	if done != n {
		panic("ispvol: a benchmarked query never completed")
	}
	return float64(ms.Mallocs-mallocs) / float64(n), float64(c.Eng.Fired()-fired) / float64(n)
}

// TestFileQueriesAllocatePerQuery pins that a query on the Figure 8
// path allocates per query, not per page: over a 512-page file it may
// cost at most 0.05 allocations per extra page more than over a 64-page
// one, and a warm query no more than its fileQueries bound in all. The
// engines bind their loop, their unit claim and their lanes' completions
// once, a search partial keeps its edge residues in one arena, and the
// table scan filters into the partial's match list.
func TestFileQueriesAllocatePerQuery(t *testing.T) {
	for _, q := range fileQueries {
		t.Run(q.name, func(t *testing.T) {
			c, _, fs, sys := newFileSystem(t, 2)
			ps := fs.PageSize()
			small := seedFile(t, c, fs, "small", 64, q.fill(ps))
			big := seedFile(t, c, fs, "big", 512, q.fill(ps))
			run := func(f *rfs.File) float64 {
				query := func(done func()) { q.query(sys, f, done) }
				queryCost(c, 2, query) // pools, rings and lanes reach their size
				allocs, _ := queryCost(c, 10, query)
				return allocs
			}
			a64, a512 := run(small), run(big)
			if most := max(a64, a512); most > q.allocs {
				t.Fatalf("a warm query made %.1f allocations, want at most %.0f", most, q.allocs)
			}
			if perPage := (a512 - a64) / (512 - 64); perPage > 0.05 {
				t.Fatalf("%.1f allocations per query over 64 pages, %.1f over 512: %.3f per extra page, want <= 0.05",
					a64, a512, perPage)
			}
		})
	}
}

// TestInStoreSearchAllocationsDoNotGrowWithPages pins the in-store
// engine's page loop (engine.page, lane.read, lane.reduced) exactly: a
// warm SearchFile over a 512-page file makes as many allocations as one
// over a 256-page file, all of them per-query records. The flash is
// error-free, because a read that draws a bit flip makes its private
// copy (nand's and ecc's pins count it), and the needle never matches,
// so the result does not grow with the file either.
func TestInStoreSearchAllocationsDoNotGrowWithPages(t *testing.T) {
	q := fileQueries[0]
	p := fileParams(2)
	p.Reliability.BitErrorRate = 0
	c, _, fs, sys := newFileSystemOn(t, p)
	ps := fs.PageSize()
	count := func(f *rfs.File) uint64 {
		queries, pages := 0, 0
		query := func() {
			sys.SearchFile(0, f, []byte("BLUEDBM"), func(r *ispvol.SearchResult, err error) {
				if err != nil || len(r.Matches) != 0 || r.FailedPages != 0 {
					t.Fatalf("search: %v, %d matches, %d failed pages", err, len(r.Matches), r.FailedPages)
				}
				queries++
				pages += r.Pages
			})
			c.Run()
		}
		for range 3 { // pools, rings and lanes reach their size
			query()
		}
		queries, pages = 0, 0
		n := alloctest.Mallocs(10, query)
		if queries == 0 || pages != queries*f.Pages() {
			t.Fatalf("%d queries scanned %d pages, want %d", queries, pages, queries*f.Pages())
		}
		return n
	}
	small := seedFile(t, c, fs, "small", 256, q.fill(ps))
	big := seedFile(t, c, fs, "big", 512, q.fill(ps))
	if a256, a512 := count(small), count(big); a256 != a512 {
		t.Fatalf("10 searches make %d allocations over 256 pages and %d over 512: the page loop allocates", a256, a512)
	}
}

// BenchmarkSearchFile and BenchmarkTableScanFile are the cost of one
// in-store query over a 512-page cluster-RFS file on 2 nodes, reported
// per page scanned: allocs/page is the heap allocations (the per-query
// records divided over the pages; nothing is per page), events/page the
// engine events.
func BenchmarkSearchFile(b *testing.B) { benchmarkFileQuery(b, 0) }

func BenchmarkTableScanFile(b *testing.B) { benchmarkFileQuery(b, 1) }

func benchmarkFileQuery(b *testing.B, which int) {
	const pages = 512
	q := fileQueries[which]
	c, _, fs, sys := newFileSystem(b, 2)
	f := seedFile(b, c, fs, "f", pages, q.fill(fs.PageSize()))
	query := func(done func()) { q.query(sys, f, done) }
	queryCost(c, 2, query)
	b.SetBytes(int64(pages * fs.PageSize()))
	b.ReportAllocs()
	b.ResetTimer()
	allocs, events := queryCost(c, b.N, query)
	b.ReportMetric(allocs/pages, "allocs/page")
	b.ReportMetric(events/pages, "events/page")
}
