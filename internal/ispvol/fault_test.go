package ispvol_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ispvol"
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
}
