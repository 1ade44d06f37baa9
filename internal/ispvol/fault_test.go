package ispvol_test

import (
	"errors"
	"testing"

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
func TestEngineReadFaultsSurface(t *testing.T) {
	needle := []byte("needle!")
	ps := core.DefaultParams(1).Geometry.PageSize
	fill := plantedFiller(needle, ps)
	c, _, v, sys := testSystem(t, 2, ispvol.DefaultConfig(), fill)
	lo, hi := 0, v.Pages()
	want := referenceMatches(fill, lo, hi, ps, needle)

	c.Node(1).Card(0).Fail()
	res, err := search(sys, 0, ispvol.Range(lo, hi), needle, ispvol.InStore)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedPages == 0 {
		t.Fatal("dead card under the scan, but FailedPages == 0")
	}
	if res.FailedPages >= hi-lo {
		t.Fatalf("all %d pages failed; only one card of four is dead", res.FailedPages)
	}
	// Matches from surviving pages must be a subset of the reference
	// set: faults may lose matches, never invent or corrupt them.
	ref := make(map[int64]bool, len(want))
	for _, m := range want {
		ref[m] = true
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches survived; three of four cards are alive")
	}
	for _, m := range res.Matches {
		if !ref[m] {
			t.Fatalf("match at %d not in the reference set", m)
		}
	}
	if len(res.Matches) >= len(want) {
		t.Fatalf("%d matches with a dead card, reference has %d; expected losses", len(res.Matches), len(want))
	}
	// The host-mediated loop over the same dead card counts its failed
	// reads the same way, and neither placement leaves an engine record
	// out of the pool.
	host, err := search(sys, 0, ispvol.Range(lo, hi), needle, ispvol.HostMediated)
	if err != nil {
		t.Fatal(err)
	}
	if host.FailedPages != res.FailedPages {
		t.Fatalf("host-mediated FailedPages = %d, in-store %d", host.FailedPages, res.FailedPages)
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
