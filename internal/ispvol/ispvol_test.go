package ispvol_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/accel/tablescan"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ispvol"
	"repro/internal/sched"
	"repro/internal/volume"
	"repro/internal/workload"
)

// testSystem builds a small cluster + scheduler + volume + ispvol
// stack, seeded with fill over the whole logical space.
func testSystem(t *testing.T, nodes int, icfg ispvol.Config, fill workload.PageFiller) (*core.Cluster, *sched.Scheduler, *volume.Volume, *ispvol.System) {
	t.Helper()
	p := core.DefaultParams(nodes)
	p.Geometry.BlocksPerChip = 4
	p.Geometry.PagesPerBlock = 8
	p.Reliability.GuardImages = true // a stored page image written to panics where it is found
	fcfg := ftl.DefaultConfig()
	st, err := workload.Build(workload.StackSpec{Params: p, Sched: sched.DefaultConfig(), FTL: &fcfg, ISP: &icfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Check(); err != nil {
			t.Error(err)
		}
	})
	if err := st.Seed(fill); err != nil {
		t.Fatal(err)
	}
	return st.C, st.S, st.V, st.ISP
}

// search, tableScan and nearest run one query to completion.
func search(sys *ispvol.System, origin int, src ispvol.Source, needle []byte, pl ispvol.Placement) (*ispvol.SearchResult, error) {
	return ispvol.Sync(sys, func(done func(*ispvol.SearchResult, error)) {
		sys.Search(origin, src, needle, pl, done)
	})
}

func tableScan(sys *ispvol.System, origin int, src ispvol.Source, pred tablescan.Predicate, pl ispvol.Placement) (*ispvol.ScanResult, error) {
	return ispvol.Sync(sys, func(done func(*ispvol.ScanResult, error)) {
		sys.TableScan(origin, src, pred, pl, done)
	})
}

func nearest(sys *ispvol.System, origin int, src ispvol.Source, item []byte, ids, pages []int, pl ispvol.Placement) (*ispvol.NNResult, error) {
	return ispvol.Sync(sys, func(done func(*ispvol.NNResult, error)) {
		sys.NearestNeighbor(origin, src, item, ids, pages, pl, done)
	})
}

// accelOps is the number of reads the scheduler's Accel class has
// completed: the engines' admitted flash reads.
func accelOps(s *sched.Scheduler) int64 {
	for _, cs := range s.Snapshot().Classes {
		if cs.Class == "accel" {
			return cs.Ops
		}
	}
	return 0
}

// plantedFiller seeds deterministic bytes with `needle` planted
// mid-page on every 3rd page and straddling every 4k+1|4k+2 page
// boundary, so junction stitching has real work.
func plantedFiller(needle []byte, ps int) workload.PageFiller {
	base := workload.RandomPages(77)
	split := len(needle) / 2
	return func(idx int, page []byte) {
		base(idx, page)
		if idx%3 == 0 {
			copy(page[ps/3:], needle)
		}
		if idx%4 == 1 {
			copy(page[ps-split:], needle[:split])
		}
		if idx%4 == 2 {
			copy(page, needle[split:])
		}
	}
}

// referenceMatches rebuilds the logical byte range from the filler
// and finds every occurrence by brute force over the contiguous
// buffer, page junctions included.
func referenceMatches(fill workload.PageFiller, lo, hi, ps int, needle []byte) []int64 {
	buf := make([]byte, (hi-lo)*ps)
	for idx := lo; idx < hi; idx++ {
		fill(idx, buf[(idx-lo)*ps:][:ps])
	}
	var out []int64
	for at := 0; ; at++ {
		i := bytes.Index(buf[at:], needle)
		if i < 0 {
			return out
		}
		at += i
		out = append(out, int64(at))
	}
}

// recordFiller packs deterministic rows, RecordsPerPage per page.
func recordFiller(ps int) workload.PageFiller {
	per := tablescan.RecordsPerPage(ps)
	return func(idx int, page []byte) {
		recs := make([]tablescan.Record, per)
		for i := range recs {
			id := uint64(idx*per + i)
			recs[i] = tablescan.Record{ID: id, ColA: int64(id * 37 % 1000), ColB: int64(id % 100)}
		}
		enc, err := tablescan.EncodeRecords(recs, ps)
		if err != nil {
			panic(err)
		}
		copy(page, enc)
	}
}

// TestUnitArbitration: more concurrent queries than acceleration
// units — the FIFO unit pool must queue the excess and every query must
// still complete. The test holds node 0's one unit itself, so every
// query's node-0 engine queues: none completes while it is held, and all
// do once it comes back.
func TestUnitArbitration(t *testing.T) {
	ps := core.DefaultParams(1).Geometry.PageSize
	fill := recordFiller(ps)
	icfg := ispvol.DefaultConfig()
	icfg.UnitsPerNode = 1
	c, _, v, sys := testSystem(t, 2, icfg, fill)
	pred := tablescan.Predicate{Col: tablescan.ColB, Op: tablescan.OpEQ, Value: 7}
	const queries = 3
	completed := 0
	sys.Units(0).Acquire(func() {})
	for i := 0; i < queries; i++ {
		sys.TableScan(i%2, ispvol.Range(0, v.Pages()), pred, ispvol.InStore, func(res *ispvol.ScanResult, err error) {
			if err != nil {
				t.Errorf("query: %v", err)
			}
			completed++
		})
	}
	c.Run()
	if completed != 0 {
		t.Fatalf("%d queries completed while node 0's one unit was held", completed)
	}
	if err := sys.Units(0).Drained(); err == nil || !strings.Contains(err.Error(), "3 waiters") {
		t.Fatalf("node 0's unit pool with 3 engines queued: %v", err)
	}
	sys.Units(0).Release()
	c.Run()
	if completed != queries {
		t.Fatalf("completed %d of %d queries", completed, queries)
	}
}

// TestUnitHeldPastDrainFailsCheck: the cluster's drain check names a
// node whose acceleration unit is still out.
func TestUnitHeldPastDrainFailsCheck(t *testing.T) {
	c, _, _, sys := testSystem(t, 2, ispvol.DefaultConfig(), recordFiller(core.DefaultParams(1).Geometry.PageSize))
	sys.Units(1).Acquire(func() {})
	err := c.Check()
	sys.Units(1).Release()
	if err == nil || !strings.Contains(err.Error(), "isp-n1: 1 of 4 tokens out") {
		t.Fatalf("Check with a unit of node 1 held: %v", err)
	}
}

// TestBypassAdmissionInvisible: under Bypass admission the scheduler
// sees no accel traffic — the arm faithfully reproduces the bug.
func TestBypassAdmissionInvisible(t *testing.T) {
	needle := []byte("ghost")
	ps := core.DefaultParams(1).Geometry.PageSize
	fill := plantedFiller(needle, ps)
	icfg := ispvol.DefaultConfig()
	icfg.Admission = ispvol.Bypass
	_, s, v, sys := testSystem(t, 2, icfg, fill)
	res, err := search(sys, 0, ispvol.Range(0, v.Pages()), needle, ispvol.InStore)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("bypass search found nothing")
	}
	if ops := accelOps(s); ops != 0 {
		t.Fatalf("bypass arm leaked %d ops into the scheduler", ops)
	}
}
