package tablescan

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/nand"
	"repro/internal/sim"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: 1, ColA: -5, ColB: 99},
		{ID: 2, ColA: 1 << 40, ColB: 0},
	}
	recs[0].Payload[0] = 0xaa
	recs[1].Payload[39] = 0xbb
	page, err := EncodeRecords(recs, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecords(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestEncodeDecodeErrors(t *testing.T) {
	if _, err := EncodeRecords(make([]Record, 1000), 4096); err == nil {
		t.Fatal("oversized page accepted")
	}
	if _, err := DecodeRecords([]byte{1}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("short page: %v", err)
	}
	if _, err := DecodeRecords([]byte{255, 255, 255, 255}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("lying count: %v", err)
	}
}

func TestPredicateEval(t *testing.T) {
	r := Record{ColA: 10, ColB: -3}
	cases := []struct {
		p    Predicate
		want bool
	}{
		{Predicate{ColA, OpLT, 11}, true},
		{Predicate{ColA, OpLT, 10}, false},
		{Predicate{ColA, OpLE, 10}, true},
		{Predicate{ColA, OpEQ, 10}, true},
		{Predicate{ColA, OpGE, 10}, true},
		{Predicate{ColA, OpGT, 10}, false},
		{Predicate{ColB, OpEQ, -3}, true},
		{Predicate{ColB, OpGT, 0}, false},
	}
	for _, c := range cases {
		got, err := c.p.Eval(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%+v = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := (Predicate{Col: 9}).Eval(r); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("bad column: %v", err)
	}
	if _, err := (Predicate{Op: 9}).Eval(r); err == nil {
		t.Fatal("bad op accepted")
	}
}

// Property: encode/decode is identity for any record batch that fits.
func TestRecordsRoundTripProperty(t *testing.T) {
	prop := func(ids []uint64, a, b int64) bool {
		if len(ids) > 60 {
			ids = ids[:60]
		}
		recs := make([]Record, len(ids))
		for i, id := range ids {
			recs[i] = Record{ID: id, ColA: a + int64(i), ColB: b - int64(i)}
		}
		page, err := EncodeRecords(recs, 8192)
		if err != nil {
			return false
		}
		got, err := DecodeRecords(page)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FilterPage reads the predicate's column in place; it must select
// exactly what decoding every row and calling Eval on it selects — a
// row the predicate cannot evaluate skipped but counted — append after
// what dst holds, reject the pages DecodeRecords rejects with dst
// untouched, and allocate only when dst must grow.
func TestFilterPageMatchesDecodeAndEval(t *testing.T) {
	rng := sim.NewRNG(5)
	recs := make([]Record, RecordsPerPage(8192))
	for i := range recs {
		recs[i] = Record{ID: uint64(i), ColA: int64(rng.Intn(7)) - 3, ColB: int64(rng.Intn(7)) - 3}
		rng.Bytes(recs[i].Payload[:])
	}
	page, err := EncodeRecords(recs, 8192)
	if err != nil {
		t.Fatal(err)
	}
	for col := Column(0); col <= ColB+1; col++ {
		for op := Op(0); op <= OpGT+1; op++ {
			pred := Predicate{Col: col, Op: op, Value: int64(rng.Intn(7)) - 3}
			var want []Record
			for _, r := range recs {
				if ok, err := pred.Eval(r); err == nil && ok {
					want = append(want, r)
				}
			}
			head := Record{ID: 1 << 60}
			got, rows, err := FilterPage([]Record{head}, page, pred)
			if err != nil || rows != int64(len(recs)) || len(got) != 1+len(want) || got[0] != head {
				t.Fatalf("%+v: %d rows, %d matches, err %v; want %d rows, %d matches", pred, rows, len(got)-1, err, len(recs), len(want))
			}
			got = got[1:]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v: match %d is %+v, want %+v", pred, i, got[i], want[i])
				}
			}
			if (col > ColB || op > OpGT) && len(got) != 0 {
				t.Fatalf("%+v selected %d rows", pred, len(got))
			}
		}
	}
	for _, bad := range [][]byte{{1}, {255, 255, 255, 255}, page[:4+RecordSize]} {
		_, wantErr := DecodeRecords(bad)
		dst := make([]Record, 1, 4)
		got, rows, err := FilterPage(dst, bad, Predicate{})
		if !errors.Is(err, ErrBadRecord) || err.Error() != wantErr.Error() || rows != 0 || len(got) != 1 || &got[0] != &dst[0] {
			t.Fatalf("%d-byte page: %d rows, %d records, err %v; want 0 rows, dst as it was, %v", len(bad), rows, len(got), err, wantErr)
		}
	}
	none := Predicate{Col: ColA, Op: OpGT, Value: 100}
	if n := testing.AllocsPerRun(20, func() { FilterPage(nil, page, none) }); n != 0 {
		t.Fatalf("a page with no match costs %.0f allocations", n)
	}
	// A page with matches, into a dst with room for them, costs nothing.
	some := Predicate{Col: ColA, Op: OpGE, Value: 0}
	dst := make([]Record, 0, len(recs))
	var hits int
	if n := testing.AllocsPerRun(20, func() {
		m, _, _ := FilterPage(dst[:0], page, some)
		hits = len(m)
	}); n != 0 || hits == 0 {
		t.Fatalf("a page with %d matches into a roomy dst costs %.0f allocations", hits, n)
	}
}

// A predicate no engine can evaluate fails the scan before any page is
// read, on both paths; it is not an empty answer.
func TestScanRejectsMalformedPredicate(t *testing.T) {
	c := scanCluster(t)
	addrs, err := BuildTable(c, 0, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pred Predicate
		want error
	}{
		{Predicate{Col: ColB + 1, Op: OpLT}, ErrBadColumn},
		{Predicate{Col: ColA, Op: OpGT + 1}, ErrBadOp},
	} {
		if err := tc.pred.Validate(); !errors.Is(err, tc.want) {
			t.Fatalf("%+v: Validate = %v, want %v", tc.pred, err, tc.want)
		}
		before := c.Eng.Fired()
		if res, err := ScanISP(c, 0, addrs, tc.pred); !errors.Is(err, tc.want) || res != nil {
			t.Fatalf("ScanISP %+v: %v, %v; want %v", tc.pred, res, err, tc.want)
		}
		if res, err := ScanHost(c, 0, addrs, tc.pred, 2); !errors.Is(err, tc.want) || res != nil {
			t.Fatalf("ScanHost %+v: %v, %v; want %v", tc.pred, res, err, tc.want)
		}
		if fired := c.Eng.Fired() - before; fired != 0 {
			t.Fatalf("%+v: the refused scans fired %d events", tc.pred, fired)
		}
	}
	if err := (Predicate{Col: ColB, Op: OpGT}).Validate(); err != nil {
		t.Fatalf("a well-formed predicate: %v", err)
	}
}

func scanCluster(t *testing.T) *core.Cluster {
	t.Helper()
	p := core.DefaultParams(1)
	p.Geometry.BlocksPerChip = 16
	c := coretest.NewCluster(t, p)
	return c
}

func TestScanISPAndHostAgree(t *testing.T) {
	c := scanCluster(t)
	const pages = 96
	addrs, err := BuildTable(c, 0, pages, 17)
	if err != nil {
		t.Fatal(err)
	}
	pred := Predicate{Col: ColB, Op: OpLT, Value: 5} // ~5% selectivity

	isp, err := ScanISP(c, 0, addrs, pred)
	if err != nil {
		t.Fatal(err)
	}
	c2 := scanCluster(t)
	addrs2, err := BuildTable(c2, 0, pages, 17)
	if err != nil {
		t.Fatal(err)
	}
	host, err := ScanHost(c2, 0, addrs2, pred, 8)
	if err != nil {
		t.Fatal(err)
	}

	if isp.Rows != host.Rows {
		t.Fatalf("rows scanned differ: %d vs %d", isp.Rows, host.Rows)
	}
	if len(isp.Matches) != len(host.Matches) {
		t.Fatalf("match counts differ: %d vs %d", len(isp.Matches), len(host.Matches))
	}
	// Selectivity sanity: ~5% of rows.
	frac := float64(len(isp.Matches)) / float64(isp.Rows)
	if frac < 0.02 || frac > 0.09 {
		t.Fatalf("selectivity %.3f, want ~0.05", frac)
	}
	// Matches are genuinely filtered.
	for _, m := range isp.Matches {
		if m.ColB >= 5 {
			t.Fatalf("non-matching record returned: %+v", m)
		}
	}
}

func TestScanISPMovesLessData(t *testing.T) {
	c := scanCluster(t)
	const pages = 96
	addrs, err := BuildTable(c, 0, pages, 19)
	if err != nil {
		t.Fatal(err)
	}
	pred := Predicate{Col: ColB, Op: OpEQ, Value: 7} // ~1% selectivity
	isp, err := ScanISP(c, 0, addrs, pred)
	if err != nil {
		t.Fatal(err)
	}
	c2 := scanCluster(t)
	addrs2, _ := BuildTable(c2, 0, pages, 19)
	host, err := ScanHost(c2, 0, addrs2, pred, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The pushed-down scan ships only matches over PCIe.
	if isp.BytesToHost >= host.BytesToHost/20 {
		t.Fatalf("ISP moved %d bytes to host vs %d for the host scan; want ~50x less",
			isp.BytesToHost, host.BytesToHost)
	}
	// And scans faster than rows can cross PCIe.
	if isp.RowsPerSec <= host.RowsPerSec {
		t.Fatalf("ISP scan (%.0f rows/s) should beat host scan (%.0f rows/s)",
			isp.RowsPerSec, host.RowsPerSec)
	}
	if isp.CPUUtil > 0.02 {
		t.Fatalf("in-store scan used %.1f%% CPU", isp.CPUUtil*100)
	}
}

func TestBuildTableDeterministic(t *testing.T) {
	c := scanCluster(t)
	addrs, err := BuildTable(c, 0, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 4 {
		t.Fatalf("addrs = %d", len(addrs))
	}
	var first []Record
	c.Node(0).ReadLocal(addrs[0].Card, addrs[0].Addr, func(data []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		first, err = DecodeRecords(data)
		if err != nil {
			t.Fatal(err)
		}
	})
	c.Run()
	if len(first) != RecordsPerPage(c.Params.PageSize()) {
		t.Fatalf("page holds %d records, want %d", len(first), RecordsPerPage(c.Params.PageSize()))
	}
	// IDs are dense from zero.
	if first[0].ID != 0 || first[1].ID != 1 {
		t.Fatalf("ids not dense: %d %d", first[0].ID, first[1].ID)
	}
	_ = sim.Microsecond
}

// matchDigest folds the matches' ids in the order the scan produced
// them, so a change in page completion order shows.
func matchDigest(ms []Record) uint64 {
	h := uint64(14695981039346656037)
	for _, m := range ms {
		h = (h ^ m.ID) * 1099511628211
	}
	return h
}

// The two runners' schedules, pinned: no figure or artifact runs them.
// More pages than engines x window (128), so the ISP scan refills its
// lanes, and more than the host threads can take at once. The values
// were recorded before the runners moved onto sim.Lanes.
func TestScanTimingPinned(t *testing.T) {
	pred := Predicate{Col: ColB, Op: OpLT, Value: 5}
	const pages = 200

	c := scanCluster(t)
	addrs, err := BuildTable(c, 0, pages, 23)
	if err != nil {
		t.Fatal(err)
	}
	isp, err := ScanISP(c, 0, addrs, pred)
	if err != nil {
		t.Fatal(err)
	}
	if isp.Elapsed != 883435 || isp.Rows != 25400 || isp.BytesToHost != 84032 || matchDigest(isp.Matches) != 0xa5d6aebd08a5f1ea {
		t.Errorf("ScanISP: elapsed %d ns, %d rows, %d B to host, digest %#x",
			int64(isp.Elapsed), isp.Rows, isp.BytesToHost, matchDigest(isp.Matches))
	}

	c = scanCluster(t)
	if addrs, err = BuildTable(c, 0, pages, 23); err != nil {
		t.Fatal(err)
	}
	host, err := ScanHost(c, 0, addrs, pred, 6)
	if err != nil {
		t.Fatal(err)
	}
	if host.Elapsed != 3677950 || host.Rows != 25400 || host.BytesToHost != 1638400 || matchDigest(host.Matches) != 0x924ea259e1979bd4 {
		t.Errorf("ScanHost: elapsed %d ns, %d rows, %d B to host, digest %#x",
			int64(host.Elapsed), host.Rows, host.BytesToHost, matchDigest(host.Matches))
	}
}

// TestScanFailingReadFailsTheRun: a table page that cannot be read
// fails the scan with the read's own error, on both paths, instead of
// returning the rows of the pages that could.
func TestScanFailingReadFailsTheRun(t *testing.T) {
	const pages = 24
	pred := Predicate{Col: ColB, Op: OpLT, Value: 5}
	for _, path := range []string{"isp", "host"} {
		c := scanCluster(t)
		addrs, err := BuildTable(c, 0, pages, 17)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, core.LinearPage(c.Params, 0, pages)) // never written
		var res *Result
		if path == "isp" {
			res, err = ScanISP(c, 0, addrs, pred)
		} else {
			res, err = ScanHost(c, 0, addrs, pred, 4)
		}
		if !errors.Is(err, nand.ErrReadFree) || res != nil {
			t.Fatalf("%s: result %t, error %v; want no result and an error wrapping nand.ErrReadFree", path, res != nil, err)
		}
	}
}
