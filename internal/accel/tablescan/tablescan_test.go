package tablescan

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/alloctest"
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
	if _, err := EncodeRecords(make([]Record, 1000), 4096); !errors.Is(err, ErrPageOverflow) {
		t.Fatalf("oversized page: %v, want ErrPageOverflow", err)
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
	if n := alloctest.Mallocs(20, func() { FilterPage(nil, page, none) }); n != 0 {
		t.Fatalf("20 pages with no match cost %d allocations", n)
	}
	// A page with matches, into a dst with room for them, costs nothing.
	some := Predicate{Col: ColA, Op: OpGE, Value: 0}
	dst := make([]Record, 0, len(recs))
	var hits int
	if n := alloctest.Mallocs(20, func() {
		m, _, _ := FilterPage(dst[:0], page, some)
		hits = len(m)
	}); n != 0 || hits == 0 {
		t.Fatalf("20 pages with %d matches into a roomy dst cost %d allocations", hits, n)
	}
}

// Validate refuses a predicate no engine can evaluate, with the
// sentinel of what is wrong, and passes a well-formed one.
func TestPredicateValidate(t *testing.T) {
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
	}
	if err := (Predicate{Col: ColB, Op: OpGT}).Validate(); err != nil {
		t.Fatalf("a well-formed predicate: %v", err)
	}
}
