package ispvol_test

import (
	"testing"

	"repro/internal/accel/tablescan"
	"repro/internal/alloctest"
	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/workload"
)

// fileQueries are the two queries of the Figure 8 path that bench's
// file-scan workload runs, each over one file. query is the one the
// allocation pin and the benchmarks run: the table scan matches one
// record in a hundred, so the merge and the result path do their work.
// allocs and found are exactly what one warm query allocates and finds
// over 64 pages of error-free flash. none is a query of the same kind
// that finds nothing — the needle is upper case over random bytes, no
// record's ColA reaches 1 000 — so its result does not grow with the
// file.
var fileQueries = []fileQuery{
	{"SearchFile", func(int) workload.PageFiller { return workload.RandomPages(9) },
		searchFile("BLUEDBM"), searchFile("BLUEDBM"), 38, 0},
	{"TableScanFile", recordFiller,
		tableScanFile(tablescan.Predicate{Col: tablescan.ColA, Op: tablescan.OpLT, Value: 10}),
		tableScanFile(tablescan.Predicate{Col: tablescan.ColA, Op: tablescan.OpGE, Value: 1000}), 37, 81},
}

type fileQuery struct {
	name        string
	fill        func(ps int) workload.PageFiller
	query, none queryFunc
	allocs      uint64
	found       int
}

// A queryFunc starts one query over f; done receives the pages it
// scanned, the matches it found, the pages that failed and its error.
type queryFunc func(sys *ispvol.System, f *rfs.File, done func(pages, found, failed int, err error))

func searchFile(needle string) queryFunc {
	return func(sys *ispvol.System, f *rfs.File, done func(pages, found, failed int, err error)) {
		sys.SearchFile(0, f, []byte(needle), func(r *ispvol.SearchResult, err error) {
			done(r.Pages, len(r.Matches), r.FailedPages, err)
		})
	}
}

func tableScanFile(pred tablescan.Predicate) queryFunc {
	return func(sys *ispvol.System, f *rfs.File, done func(pages, found, failed int, err error)) {
		sys.TableScanFile(0, f, pred, func(r *ispvol.ScanResult, err error) {
			done(r.Pages, len(r.Matches), r.FailedPages, err)
		})
	}
}

// warmQueryMallocs runs query over f three times, so that pools, rings
// and lanes reach their size, and then counts the allocations of runs
// more with alloctest.Mallocs. Every query must scan every page of f,
// fail no page and find as many matches as the first; that count is
// returned with the allocations.
func warmQueryMallocs(t *testing.T, c *core.Cluster, sys *ispvol.System, f *rfs.File, query queryFunc, runs int) (allocs uint64, found int) {
	t.Helper()
	completed := 0
	done := func(pages, n, failed int, err error) {
		if completed == 0 {
			found = n
		}
		if err != nil || pages != f.Pages() || n != found || failed != 0 {
			t.Fatalf("query over %d pages: %v, %d pages scanned, %d found (the first found %d), %d failed",
				f.Pages(), err, pages, n, found, failed)
		}
		completed++
	}
	run := func() {
		before := completed
		query(sys, f, done)
		c.Run()
		if completed != before+1 {
			t.Fatalf("a query over %d pages never completed", f.Pages())
		}
	}
	for range 3 {
		run()
	}
	return alloctest.Mallocs(runs, run), found
}

// errorFreeFileSystem is newFileSystem on flash that draws no bit
// flip: a read that draws one makes its private copy (nand's and ecc's
// pins count it), so a count over bit errors is not exact.
func errorFreeFileSystem(t *testing.T) (*core.Cluster, *rfs.FS, *ispvol.System) {
	p := fileParams(2)
	p.Reliability.BitErrorRate = 0
	c, _, fs, sys := newFileSystemOn(t, p)
	return c, fs, sys
}

// TestFileQueriesAllocatePerQuery pins what one warm query on the
// Figure 8 path allocates, exactly: its per-query records and its
// result. The engines bind their loop, their unit claim and their
// lanes' completions once, a search partial keeps its edge residues in
// one arena, and the table scan filters into the partial's match list.
func TestFileQueriesAllocatePerQuery(t *testing.T) {
	for _, q := range fileQueries {
		t.Run(q.name, func(t *testing.T) {
			c, fs, sys := errorFreeFileSystem(t)
			f := seedFile(t, c, fs, "f", 64, q.fill(fs.PageSize()))
			allocs, found := warmQueryMallocs(t, c, sys, f, q.query, 10)
			if allocs != 10*q.allocs || found != q.found {
				t.Fatalf("10 warm queries made %d allocations and each found %d, want %d and %d",
					allocs, found, 10*q.allocs, q.found)
			}
		})
	}
}

// TestInStoreSearchAllocationsDoNotGrowWithPages pins the in-store
// engine's page loop (engine.page, lane.read, lane.reduced) exactly:
// each kind of query, finding nothing, makes as many allocations over
// a 512-page file as over a 256-page file.
func TestInStoreSearchAllocationsDoNotGrowWithPages(t *testing.T) {
	for _, q := range fileQueries {
		t.Run(q.name, func(t *testing.T) {
			c, fs, sys := errorFreeFileSystem(t)
			small := seedFile(t, c, fs, "small", 256, q.fill(fs.PageSize()))
			big := seedFile(t, c, fs, "big", 512, q.fill(fs.PageSize()))
			a256, f256 := warmQueryMallocs(t, c, sys, small, q.none, 10)
			a512, f512 := warmQueryMallocs(t, c, sys, big, q.none, 10)
			if f256 != 0 || f512 != 0 {
				t.Fatalf("a query that should find nothing found %d over 256 pages and %d over 512", f256, f512)
			}
			if a256 != a512 {
				t.Fatalf("10 queries make %d allocations over 256 pages and %d over 512: the page loop allocates", a256, a512)
			}
		})
	}
}

// BenchmarkSearchFile and BenchmarkTableScanFile are the cost of one
// in-store query over a 512-page cluster-RFS file on 2 nodes (bit
// errors on). ns/op, B/op and allocs/op cover the b.N timed queries.
// allocs/page is alloctest.Mallocs' count over b.N more, run outside
// the timed region (under the race detector Mallocs runs three windows
// and keeps the least), divided over the pages scanned: the per-query
// records and a flipped read's private copy. events/page is the engine
// events of the timed queries.
func BenchmarkSearchFile(b *testing.B) { benchmarkFileQuery(b, 0) }

func BenchmarkTableScanFile(b *testing.B) { benchmarkFileQuery(b, 1) }

func benchmarkFileQuery(b *testing.B, which int) {
	const pages = 512
	q := fileQueries[which]
	c, _, fs, sys := newFileSystem(b, 2)
	f := seedFile(b, c, fs, "f", pages, q.fill(fs.PageSize()))
	done := func(_, _, _ int, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	query := func() {
		q.query(sys, f, done)
		c.Run()
	}
	query()
	query()
	b.SetBytes(int64(pages * fs.PageSize()))
	b.ReportAllocs()
	fired := c.Eng.Fired()
	b.ResetTimer()
	for range b.N {
		query()
	}
	b.StopTimer()
	events := c.Eng.Fired() - fired
	allocs := alloctest.Mallocs(b.N, query)
	b.ReportMetric(float64(allocs)/float64(b.N)/pages, "allocs/page")
	b.ReportMetric(float64(events)/float64(b.N)/pages, "events/page")
}
