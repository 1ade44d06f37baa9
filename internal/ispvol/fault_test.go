package ispvol_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/accel/lsh"
	"repro/internal/accel/tablescan"

	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/rfs"
	"repro/internal/volume"
	"repro/internal/workload"
)

// TestEngineReadFaultsSurface: a dead card under a distributed query
// must not panic, hang, or silently shrink the match set — the engines
// report the lost pages through FailedPages and every match they do
// return is real. This is the ispvol link of the stack-wide error
// contract: engine flash reads fail typed and counted, like host reads.
// Each kernel's matches are keyed for the check: a search match by its
// offset, a table-scan match by its record ID, a nearest-neighbour
// answer by its candidate ID (every page is a candidate, ID = page).
func TestEngineReadFaultsSurface(t *testing.T) {
	needle := []byte("needle!")
	ps := core.DefaultParams(1).Geometry.PageSize
	pred := tablescan.Predicate{Col: tablescan.ColA, Op: tablescan.OpLT, Value: 120}
	planted, records := plantedFiller(needle, ps), recordFiller(ps)
	nnFill, nnQuery := nnFiller(t, ps)
	for _, tc := range []struct {
		name string
		fill workload.PageFiller
		// query runs the kernel over the n pages of src under pl and
		// returns its failed pages and match keys; want is the match
		// keys of pages [lo, hi).
		query func(sys *ispvol.System, src ispvol.Source, n int, pl ispvol.Placement) (int, []int64, error)
		want  func(t *testing.T, lo, hi int) []int64
	}{{
		name: "search",
		fill: planted,
		query: func(sys *ispvol.System, src ispvol.Source, _ int, pl ispvol.Placement) (int, []int64, error) {
			res, err := search(sys, 0, src, needle, pl)
			if err != nil {
				return 0, nil, err
			}
			return res.FailedPages, res.Matches, nil
		},
		want: func(_ *testing.T, lo, hi int) []int64 { return referenceMatches(planted, lo, hi, ps, needle) },
	}, {
		name: "tablescan",
		fill: records,
		query: func(sys *ispvol.System, src ispvol.Source, _ int, pl ispvol.Placement) (int, []int64, error) {
			res, err := tableScan(sys, 0, src, pred, pl)
			if err != nil {
				return 0, nil, err
			}
			return res.FailedPages, recordIDs(res.Matches), nil
		},
		want: func(t *testing.T, lo, hi int) []int64 {
			var recs []tablescan.Record
			page := make([]byte, ps)
			for idx := lo; idx < hi; idx++ {
				records(idx, page)
				var err error
				if recs, _, err = tablescan.FilterPage(recs, page, pred); err != nil {
					t.Fatal(err)
				}
			}
			return recordIDs(recs)
		},
	}, {
		name: "nn",
		fill: nnFill,
		query: func(sys *ispvol.System, src ispvol.Source, n int, pl ispvol.Placement) (int, []int64, error) {
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			res, err := nearest(sys, 0, src, nnQuery, ids, ids, pl)
			if err != nil {
				return 0, nil, err
			}
			// The answer must be a page that was read, at its true
			// distance.
			page := make([]byte, ps)
			nnFill(res.BestID, page)
			if d := lsh.HammingDistance(nnQuery, page); res.BestDist != d || res.Comparisons != int64(n-res.FailedPages) {
				return 0, nil, fmt.Errorf("best %d at distance %d (true %d) after %d comparisons of %d pages, %d failed",
					res.BestID, res.BestDist, d, res.Comparisons, n, res.FailedPages)
			}
			return res.FailedPages, []int64{int64(res.BestID)}, nil
		},
		want: func(_ *testing.T, lo, hi int) []int64 {
			ids := make([]int64, hi-lo)
			for i := range ids {
				ids[i] = int64(i)
			}
			return ids
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			c, _, v, sys := testSystem(t, 2, ispvol.DefaultConfig(), tc.fill)
			lo, hi := 0, v.Pages()
			want := tc.want(t, lo, hi)

			c.Node(1).Card(0).Fail()
			failed, got, err := tc.query(sys, ispvol.Range(lo, hi), hi-lo, ispvol.InStore)
			if err != nil {
				t.Fatal(err)
			}
			if failed == 0 {
				t.Fatal("dead card under the scan, but FailedPages == 0")
			}
			if failed >= hi-lo {
				t.Fatalf("all %d pages failed; only one card of four is dead", failed)
			}
			// Matches from surviving pages must be a subset of the
			// reference set: faults may lose matches, never invent or
			// corrupt them.
			ref := make(map[int64]bool, len(want))
			for _, m := range want {
				ref[m] = true
			}
			if len(got) == 0 {
				t.Fatal("no matches survived; three of four cards are alive")
			}
			for _, m := range got {
				if !ref[m] {
					t.Fatalf("match %d not in the reference set", m)
				}
			}
			if len(got) >= len(want) {
				t.Fatalf("%d matches with a dead card, reference has %d; expected losses", len(got), len(want))
			}
			// The host-mediated loop over the same dead card counts its
			// failed reads the same way, and neither placement leaves an
			// engine record out of the pool.
			hostFailed, _, err := tc.query(sys, ispvol.Range(lo, hi), hi-lo, ispvol.HostMediated)
			if err != nil {
				t.Fatal(err)
			}
			if hostFailed != failed {
				t.Fatalf("host-mediated FailedPages = %d, in-store %d", hostFailed, failed)
			}
		})
	}
}

// recordIDs keys table-scan matches by record ID.
func recordIDs(recs []tablescan.Record) []int64 {
	ids := make([]int64, len(recs))
	for i, r := range recs {
		ids[i] = int64(r.ID)
	}
	return ids
}

// TestTableScanCountsUndecodablePage: a page of a table file that is
// not a record page fails that page, not the query, and is not dropped
// unseen. Both placements answer err == nil with FailedPages == 1 and
// exactly the reference matches and rows of the other pages.
func TestTableScanCountsUndecodablePage(t *testing.T) {
	ps := core.DefaultParams(1).Geometry.PageSize
	const bad = 5
	records := recordFiller(ps)
	fill := func(idx int, page []byte) {
		if idx == bad {
			for i := range page {
				page[i] = 0xff // a record count no page can hold
			}
			return
		}
		records(idx, page)
	}
	fx := fileFixture(t, fill)
	pred := tablescan.Predicate{Col: tablescan.ColA, Op: tablescan.OpLT, Value: 120}
	var want []tablescan.Record
	var wantRows int64
	for i := 0; i < fx.pages; i++ {
		got, rows, err := tablescan.FilterPage(want, fx.page(i), pred)
		if (err != nil) != (i == bad) {
			t.Fatalf("page %d: FilterPage error %v", i, err)
		}
		want, wantRows = got, wantRows+rows
	}
	for _, pl := range placements {
		res, err := tableScan(fx.sys, fx.origin, fx.src, pred, pl)
		if err != nil {
			t.Fatalf("%v: %v", pl, err)
		}
		if res.FailedPages != 1 || res.Pages != fx.pages {
			t.Fatalf("%v: %d of %d pages failed, want 1 of %d", pl, res.FailedPages, res.Pages, fx.pages)
		}
		if res.Rows != wantRows || !reflect.DeepEqual(res.Matches, want) {
			t.Fatalf("%v: %d rows, %d records; want %d rows, %d records", pl, res.Rows, len(res.Matches), wantRows, len(want))
		}
	}
}

// TestTableScanRejectsMalformedPredicate: a predicate no engine can
// evaluate fails the query before any flash read, under both
// placements, instead of answering it with zero matches.
func TestTableScanRejectsMalformedPredicate(t *testing.T) {
	ps := core.DefaultParams(1).Geometry.PageSize
	c, s, v, sys := testSystem(t, 2, ispvol.DefaultConfig(), recordFiller(ps))
	for _, tc := range []struct {
		pred tablescan.Predicate
		want error
	}{
		{tablescan.Predicate{Col: tablescan.ColB + 1, Op: tablescan.OpEQ}, tablescan.ErrBadColumn},
		{tablescan.Predicate{Col: tablescan.ColA, Op: tablescan.OpGT + 1}, tablescan.ErrBadOp},
	} {
		for _, pl := range placements {
			fired, reads := c.Eng.Fired(), accelOps(s)
			var got error
			called := false
			sys.TableScan(0, ispvol.Range(0, v.Pages()), tc.pred, pl, func(res *ispvol.ScanResult, err error) {
				if res != nil {
					t.Errorf("%v: a result for a malformed predicate", pl)
				}
				got, called = err, true
			})
			if !called || !errors.Is(got, tc.want) {
				t.Fatalf("%v %+v: done called %v with %v, want %v before returning", pl, tc.pred, called, got, tc.want)
			}
			c.Run()
			if c.Eng.Fired() != fired || accelOps(s) != reads {
				t.Fatalf("%v %+v: the refused query read flash", pl, tc.pred)
			}
		}
	}
}

// TestSourceErrorsAreTyped: a page a query cannot resolve fails it
// typed, whatever its source — a Range source's page past the end
// wraps volume.ErrOutOfRange, a File source's page past the end or
// still being appended wraps rfs.ErrBadOffset, the sentinel
// File.ReadPage returns for the same pages — under both placements.
func TestSourceErrorsAreTyped(t *testing.T) {
	item := []byte("item")
	for _, tc := range []struct {
		name  string
		query func(t *testing.T, pl ispvol.Placement) error
		want  error
	}{
		{"range: candidate past the end", func(t *testing.T, pl ispvol.Placement) error {
			_, _, v, sys := testSystem(t, 2, ispvol.DefaultConfig(), workload.RandomPages(3))
			_, err := nearest(sys, 0, ispvol.Range(0, v.Pages()), item, []int{7}, []int{v.Pages()}, pl)
			return err
		}, volume.ErrOutOfRange},
		{"file: candidate past the end", func(t *testing.T, pl ispvol.Placement) error {
			c, _, fs, sys := newFileSystem(t, 2)
			f := seedFile(t, c, fs, "f", 4, workload.RandomPages(3))
			_, err := nearest(sys, 0, ispvol.File(f), item, []int{7}, []int{4}, pl)
			return err
		}, rfs.ErrBadOffset},
		{"file: an append in flight", func(t *testing.T, pl ispvol.Placement) error {
			c, _, fs, sys := newFileSystem(t, 2)
			f := seedFile(t, c, fs, "f", 4, workload.RandomPages(3))
			f.AppendPage(make([]byte, f.PageSize()), func(err error) {
				if err != nil {
					t.Error(err)
				}
			})
			_, err := ispvol.Sync(sys, func(done func(*ispvol.SearchResult, error)) {
				sys.Search(0, ispvol.File(f), []byte("BLUEDBM"), pl, done)
			})
			return err
		}, rfs.ErrBadOffset},
	} {
		for _, pl := range placements {
			if err := tc.query(t, pl); !errors.Is(err, tc.want) {
				t.Errorf("%s, %v: err = %v, want %v", tc.name, pl, err, tc.want)
			}
		}
	}
}
