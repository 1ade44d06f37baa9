package ispvol_test

// The query matrix: every kernel over every source under both
// placements, each cell checked against an in-memory reference that
// shares no code with the executor, and the two placements of a cell
// checked equal field for field. Bad input is checked the same way:
// both placements must fail, with the same error.

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/accel/graph"
	"repro/internal/accel/lsh"
	accelsearch "repro/internal/accel/search"
	"repro/internal/accel/tablescan"
	"repro/internal/core"
	"repro/internal/ispvol"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/volume"
	"repro/internal/workload"
)

var placements = []ispvol.Placement{ispvol.InStore, ispvol.HostMediated}

// fixture is one seeded source on its own stack. page(i) regenerates
// the content of source page i.
type fixture struct {
	s      *sched.Scheduler
	sys    *ispvol.System
	src    ispvol.Source
	origin int
	pages  int
	ps     int
	page   func(i int) []byte
}

const (
	fixturePages = 72
	volumeLo     = 8 // the volume source starts mid-volume: page i is logical page volumeLo+i
)

func filled(fill workload.PageFiller, ps int) func(int) []byte {
	return func(idx int) []byte {
		page := make([]byte, ps)
		fill(idx, page)
		return page
	}
}

// volumeFixture is a Range over the middle of a 3-node striped volume.
func volumeFixture(t *testing.T, fill workload.PageFiller) *fixture {
	_, s, v, sys := testSystem(t, 3, ispvol.DefaultConfig(), fill)
	if volumeLo+fixturePages > v.Pages() {
		t.Fatalf("volume has only %d pages", v.Pages())
	}
	page := filled(fill, v.PageSize())
	return &fixture{s: s, sys: sys, src: ispvol.Range(volumeLo, volumeLo+fixturePages), origin: 2,
		pages: fixturePages, ps: v.PageSize(), page: func(i int) []byte { return page(volumeLo + i) }}
}

// fileFixture is a file striped over a 2-node cluster RFS.
func fileFixture(t *testing.T, fill workload.PageFiller) *fixture {
	c, s, fs, sys := newFileSystem(t, 2)
	f := seedFile(t, c, fs, "data", fixturePages, fill)
	return &fixture{s: s, sys: sys, src: ispvol.File(f), origin: 1,
		pages: fixturePages, ps: fs.PageSize(), page: filled(fill, fs.PageSize())}
}

// nnFiller stores near-duplicate items, one per page, and returns the
// query item.
func nnFiller(t *testing.T, ps int) (workload.PageFiller, []byte) {
	items, query, err := workload.NearDuplicateSet(fixturePages, ps, 7, 40, 41)
	if err != nil {
		t.Fatal(err)
	}
	base := workload.RandomPages(99)
	return func(idx int, page []byte) {
		if item, ok := items[idx]; ok {
			copy(page, item)
		} else {
			base(idx, page)
		}
	}, query
}

// nnCandidates runs the query through an LSH index over the fixture's
// pages (candidate id == source page) and appends an alias of the
// nearest page under a higher id, so the answer rests on the
// lowest-id tie-break.
func nnCandidates(t *testing.T, fx *fixture, query []byte) (ids, pages []int, items map[int][]byte) {
	ix, err := lsh.NewIndex(len(query), 8, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fx.pages; i++ {
		if err := ix.Add(i, fx.page(i)); err != nil {
			t.Fatal(err)
		}
	}
	ids, err = ix.Candidates(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 8 {
		t.Fatalf("only %d LSH candidates; fixture too sparse to be meaningful", len(ids))
	}
	pages = append([]int(nil), ids...)
	items = map[int][]byte{}
	for _, id := range ids {
		items[id] = fx.page(id)
	}
	best, _ := lsh.NearestBrute(query, items)
	alias := fx.pages + best
	ids, pages = append(ids, alias), append(pages, best)
	items[alias] = fx.page(best)
	return ids, pages, items
}

// untimed copies a result without the fields that legitimately differ
// between placements: timing, and the bytes that reached the host.
func untimed(res any) any {
	switch r := res.(type) {
	case *ispvol.SearchResult:
		c := *r
		c.Elapsed, c.Throughput = 0, 0
		return c
	case *ispvol.ScanResult:
		c := *r
		c.Elapsed, c.RowsPerSec, c.BytesToHost = 0, 0, 0
		return c
	case *ispvol.NNResult:
		c := *r
		c.Elapsed, c.CmpPerSec = 0, 0
		return c
	}
	panic("unknown result type")
}

// timing pulls the common timing fields out of a result.
func timing(res any) (elapsed sim.Time, rate float64) {
	switch r := res.(type) {
	case *ispvol.SearchResult:
		return r.Elapsed, r.Throughput
	case *ispvol.ScanResult:
		return r.Elapsed, r.RowsPerSec
	case *ispvol.NNResult:
		return r.Elapsed, r.CmpPerSec
	}
	panic("unknown result type")
}

func TestQueryMatrix(t *testing.T) {
	ps := core.DefaultParams(1).Geometry.PageSize
	needle := []byte("needle!")
	pred := tablescan.Predicate{Col: tablescan.ColA, Op: tablescan.OpLT, Value: 120}
	nnFill, nnQuery := nnFiller(t, ps)

	kernels := []struct {
		name string
		fill workload.PageFiller
		// prepare binds the kernel to a fixture: run executes the query
		// under a placement, check holds a result against the in-memory
		// reference, reads is how many flash pages one query covers.
		prepare func(t *testing.T, fx *fixture) (run func(ispvol.Placement) (any, error), check func(*testing.T, any), reads int)
	}{{
		name: "search",
		fill: plantedFiller(needle, ps),
		prepare: func(t *testing.T, fx *fixture) (func(ispvol.Placement) (any, error), func(*testing.T, any), int) {
			want := referenceMatches(func(i int, page []byte) { copy(page, fx.page(i)) }, 0, fx.pages, fx.ps, needle)
			straddlers := 0
			for _, m := range want {
				if m/int64(fx.ps) != (m+int64(len(needle))-1)/int64(fx.ps) {
					straddlers++
				}
			}
			if straddlers == 0 {
				t.Fatal("no boundary-straddling matches planted; junction path untested")
			}
			return func(pl ispvol.Placement) (any, error) {
					return search(fx.sys, fx.origin, fx.src, needle, pl)
				}, func(t *testing.T, res any) {
					got := res.(*ispvol.SearchResult)
					if !reflect.DeepEqual(got.Matches, want) {
						t.Fatalf("matches %v, want %v", got.Matches, want)
					}
					if got.Pages != fx.pages || got.FailedPages != 0 || got.Bytes != int64(fx.pages)*int64(fx.ps) {
						t.Fatalf("pages %d failed %d bytes %d", got.Pages, got.FailedPages, got.Bytes)
					}
				}, fx.pages
		},
	}, {
		name: "tablescan",
		fill: recordFiller(ps),
		prepare: func(t *testing.T, fx *fixture) (func(ispvol.Placement) (any, error), func(*testing.T, any), int) {
			var wantRows int64
			var want []tablescan.Record
			for i := 0; i < fx.pages; i++ {
				var rows int64
				var err error
				want, rows, err = tablescan.FilterPage(want, fx.page(i), pred)
				if err != nil {
					t.Fatal(err)
				}
				wantRows += rows
			}
			if len(want) == 0 {
				t.Fatal("predicate selects nothing; nothing validated")
			}
			return func(pl ispvol.Placement) (any, error) {
					return tableScan(fx.sys, fx.origin, fx.src, pred, pl)
				}, func(t *testing.T, res any) {
					got := res.(*ispvol.ScanResult)
					if got.Rows != wantRows || !reflect.DeepEqual(got.Matches, want) {
						t.Fatalf("%d rows, %d records; want %d rows, %d records", got.Rows, len(got.Matches), wantRows, len(want))
					}
					if got.Pages != fx.pages || got.FailedPages != 0 {
						t.Fatalf("pages %d failed %d", got.Pages, got.FailedPages)
					}
				}, fx.pages
		},
	}, {
		name: "nn",
		fill: nnFill,
		prepare: func(t *testing.T, fx *fixture) (func(ispvol.Placement) (any, error), func(*testing.T, any), int) {
			ids, pages, items := nnCandidates(t, fx, nnQuery)
			wantID, wantDist := lsh.NearestBrute(nnQuery, items)
			return func(pl ispvol.Placement) (any, error) {
					return nearest(fx.sys, fx.origin, fx.src, nnQuery, ids, pages, pl)
				}, func(t *testing.T, res any) {
					got := res.(*ispvol.NNResult)
					if got.BestID != wantID || got.BestDist != wantDist {
						t.Fatalf("best (%d, %d) != brute force (%d, %d)", got.BestID, got.BestDist, wantID, wantDist)
					}
					if got.Comparisons != int64(len(ids)) || got.Pages != len(ids) || got.FailedPages != 0 {
						t.Fatalf("compared %d of %d candidates: %+v", got.Comparisons, len(ids), got)
					}
				}, len(ids)
		},
	}}
	sources := []struct {
		name  string
		build func(*testing.T, workload.PageFiller) *fixture
	}{{"volume", volumeFixture}, {"file", fileFixture}}

	for _, k := range kernels {
		for _, src := range sources {
			t.Run(k.name+"/"+src.name, func(t *testing.T) {
				fx := src.build(t, k.fill)
				if fx.ps != ps {
					t.Fatalf("fixture page size %d, content generated for %d", fx.ps, ps)
				}
				run, check, reads := k.prepare(t, fx)
				var results []any
				for _, pl := range placements {
					before := accelOps(fx.s)
					res, err := run(pl)
					if err != nil {
						t.Fatalf("%v: %v", pl, err)
					}
					check(t, res)
					if elapsed, rate := timing(res); elapsed <= 0 || rate <= 0 {
						t.Fatalf("%v: elapsed %v, rate %v not stamped", pl, elapsed, rate)
					}
					// Engines read flash through the scheduler's Accel
					// class; the host-mediated arm never does.
					admitted := accelOps(fx.s) - before
					if pl == ispvol.InStore && admitted < int64(reads) {
						t.Fatalf("accel class saw %d ops, want >= %d: engine reads bypassed admission", admitted, reads)
					}
					if pl == ispvol.HostMediated && admitted != 0 {
						t.Fatalf("host-mediated query issued %d accel reads", admitted)
					}
					results = append(results, res)
				}
				if a, b := untimed(results[0]), untimed(results[1]); !reflect.DeepEqual(a, b) {
					t.Fatalf("placements diverge:\n in-store      %+v\n host-mediated %+v", a, b)
				}
				// The model's claim, on the fixture with full-width flash
				// buses (the file fixture's two-chip buses leave a short
				// candidate list too little parallelism to amortise the
				// fan-out).
				inStore, _ := timing(results[0])
				host, _ := timing(results[1])
				if src.name == "volume" && inStore >= host {
					t.Fatalf("in-store took %v, host-mediated %v: the engines should win", inStore, host)
				}
				// Pushdown: only qualifying records reach the host in
				// store; host-mediated hauls every page.
				if r, ok := results[0].(*ispvol.ScanResult); ok {
					h := results[1].(*ispvol.ScanResult)
					if want := int64(fx.pages) * int64(fx.ps); h.BytesToHost != want || r.BytesToHost >= want {
						t.Fatalf("bytes to host: in-store %d, host-mediated %d (of %d)", r.BytesToHost, h.BytesToHost, want)
					}
				}
			})
		}
	}
}

// TestBadInputFailsAlikeOnBothPlacements: the source and the kernel
// arguments are validated once, ahead of the placement, so both arms
// reject the same input with the same error — neither may degrade it
// into a "successful" result with FailedPages. Every entry point —
// Search, TableScan, NearestNeighbor, WalkMigrate — is run with an
// origin outside the cluster and with its own bad input; each failure
// fires done exactly once, wraps a sentinel, and leaves the cluster
// passing its drain check (Sync holds the last two).
func TestBadInputFailsAlikeOnBothPlacements(t *testing.T) {
	ps := core.DefaultParams(1).Geometry.PageSize
	_, _, v, sys := testSystem(t, 2, ispvol.DefaultConfig(), workload.RandomPages(1))
	c, _, fs, fileSys := newFileSystem(t, 1)
	_, _, walkSys, g := walkFixture(t, 2, graph.Config{Vertices: 16, AvgDegree: 2, Seed: 1})
	file := ispvol.File(seedFile(t, c, fs, "f", 8, workload.RandomPages(2)))
	whole := ispvol.Range(0, v.Pages())
	item := make([]byte, 64)

	type query func(sys *ispvol.System, origin int, src ispvol.Source, pl ispvol.Placement) error
	scans := []struct {
		name string
		run  query
	}{
		{"search", func(sys *ispvol.System, origin int, src ispvol.Source, pl ispvol.Placement) error {
			_, err := search(sys, origin, src, []byte("x"), pl)
			return err
		}},
		{"tablescan", func(sys *ispvol.System, origin int, src ispvol.Source, pl ispvol.Placement) error {
			_, err := tableScan(sys, origin, src, tablescan.Predicate{}, pl)
			return err
		}},
		{"nn", func(sys *ispvol.System, origin int, src ispvol.Source, pl ispvol.Placement) error {
			_, err := nearest(sys, origin, src, item, []int{0}, []int{0}, pl)
			return err
		}},
	}
	walk := func(sys *ispvol.System, origin int, _ ispvol.Source, _ ispvol.Placement) error {
		_, err := walkMigrate(sys, origin, g, graph.TraverseConfig{Steps: 4})
		return err
	}
	nn := func(item []byte, ids, pages []int) query {
		return func(sys *ispvol.System, origin int, src ispvol.Source, pl ispvol.Placement) error {
			_, err := nearest(sys, origin, src, item, ids, pages, pl)
			return err
		}
	}

	type row struct {
		name   string
		run    query
		sys    *ispvol.System
		origin int
		src    ispvol.Source
		is     error // the typed error the failure must wrap, if any
	}
	var rows []row
	for _, k := range scans {
		name, run := k.name, k.run
		rows = append(rows,
			row{name + "/origin below", run, sys, -1, whole, ispvol.ErrBadOrigin},
			row{name + "/origin above", run, sys, 2, whole, ispvol.ErrBadOrigin},
			row{name + "/file origin above", run, fileSys, 1, file, ispvol.ErrBadOrigin},
			row{name + "/range negative", run, sys, 0, ispvol.Range(-1, 4), volume.ErrOutOfRange},
			row{name + "/range past end", run, sys, 0, ispvol.Range(0, v.Pages()+1), volume.ErrOutOfRange},
			row{name + "/range inverted", run, sys, 0, ispvol.Range(5, 3), volume.ErrOutOfRange},
			row{name + "/no volume", run, fileSys, 0, ispvol.Range(0, 8), ispvol.ErrNoVolume},
		)
	}
	rows = append(rows,
		row{"search/empty needle", func(sys *ispvol.System, origin int, src ispvol.Source, pl ispvol.Placement) error {
			_, err := search(sys, origin, src, nil, pl)
			return err
		}, sys, 0, whole, accelsearch.ErrEmptyPattern},
		row{"tablescan/unknown column", func(sys *ispvol.System, origin int, src ispvol.Source, pl ispvol.Placement) error {
			_, err := tableScan(sys, origin, src, tablescan.Predicate{Col: 99}, pl)
			return err
		}, sys, 0, whole, tablescan.ErrBadColumn},
		// A placement that is neither arm: the row overrides the
		// placement it is handed, so both runs ask for the same one.
		row{"search/unknown placement", func(sys *ispvol.System, origin int, src ispvol.Source, _ ispvol.Placement) error {
			_, err := search(sys, origin, src, []byte("x"), ispvol.HostMediated+1)
			return err
		}, sys, 0, whole, ispvol.ErrBadPlacement},
		row{"walk/origin below", walk, walkSys, -1, nil, ispvol.ErrBadOrigin},
		row{"walk/origin above", walk, walkSys, 2, nil, ispvol.ErrBadOrigin},
		row{"walk/zero steps", func(sys *ispvol.System, origin int, _ ispvol.Source, _ ispvol.Placement) error {
			_, err := walkMigrate(sys, origin, g, graph.TraverseConfig{})
			return err
		}, walkSys, 0, nil, graph.ErrBadSteps},
		// A candidate page outside the source fails the query; see also
		// TestNNOutOfRangeCandidate.
		row{"nn/candidate negative", nn(item, []int{0, 1}, []int{0, -1}), sys, 0, whole, volume.ErrOutOfRange},
		row{"nn/candidate past range", nn(item, []int{0}, []int{4}), sys, 0, ispvol.Range(8, 12), volume.ErrOutOfRange},
		row{"nn/file candidate past end", nn(item, []int{0, 1}, []int{0, 8}), fileSys, 0, file, nil},
		row{"nn/file candidate negative", nn(item, []int{0}, []int{-1}), fileSys, 0, file, nil},
	)
	for _, src := range []struct {
		name string
		sys  *ispvol.System
		src  ispvol.Source
	}{{"volume", sys, whole}, {"file", fileSys, file}} {
		rows = append(rows,
			row{"nn/" + src.name + "/ids-pages mismatch", nn(item, []int{1, 2}, []int{1}), src.sys, 0, src.src, ispvol.ErrBadCandidates},
			row{"nn/" + src.name + "/empty item", nn(nil, []int{0}, []int{0}), src.sys, 0, src.src, ispvol.ErrBadItem},
			row{"nn/" + src.name + "/oversized item", nn(make([]byte, ps+1), []int{0}, []int{0}), src.sys, 0, src.src, ispvol.ErrBadItem},
		)
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var errs []error
			for _, pl := range placements {
				err := r.run(r.sys, r.origin, r.src, pl)
				if err == nil {
					t.Fatalf("%v accepted the query", pl)
				}
				if r.is != nil && !errors.Is(err, r.is) {
					t.Fatalf("%v failed with %q, want a %q", pl, err, r.is)
				}
				errs = append(errs, err)
			}
			if errs[0].Error() != errs[1].Error() {
				t.Fatalf("placements fail differently: %q vs %q", errs[0], errs[1])
			}
		})
	}
}

// TestNNOutOfRangeCandidate is the regression test for the drift the
// twin entry points had: the host-mediated arm over a volume accepted
// a candidate page beyond the volume and reported success with
// FailedPages == 1, where the in-store arm failed the query.
func TestNNOutOfRangeCandidate(t *testing.T) {
	_, _, v, sys := testSystem(t, 2, ispvol.DefaultConfig(), workload.RandomPages(1))
	for _, pl := range placements {
		res, err := nearest(sys, 0, ispvol.Range(0, v.Pages()), make([]byte, 64),
			[]int{0, 1}, []int{0, v.Pages() + 5}, pl)
		if !errors.Is(err, volume.ErrOutOfRange) {
			t.Fatalf("%v: result %+v, error %v; want volume.ErrOutOfRange", pl, res, err)
		}
	}
}

// TestNNNoCandidates: an empty candidate list is a query over zero
// pages, not over the whole source.
func TestNNNoCandidates(t *testing.T) {
	_, _, v, sys := testSystem(t, 2, ispvol.DefaultConfig(), workload.RandomPages(1))
	for _, pl := range placements {
		res, err := nearest(sys, 0, ispvol.Range(0, v.Pages()), make([]byte, 64), nil, nil, pl)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestID != -1 || res.BestDist != -1 || res.Comparisons != 0 || res.Pages != 0 {
			t.Fatalf("%v: empty candidate list produced %+v", pl, res)
		}
	}
}
