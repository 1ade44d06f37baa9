package ispvol

import (
	"reflect"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/sched"
	"repro/internal/sim"
)

// refChipInterleave is the reference model of chipInterleave: a map of
// growing per-chip buckets drained round-robin in the order each chip
// first appears.
func refChipInterleave(refs []pageRef) []pageRef {
	if len(refs) < 2 {
		return refs
	}
	type chipKey struct{ card, bus, chip int }
	var order []chipKey
	buckets := make(map[chipKey][]pageRef)
	for _, r := range refs {
		k := chipKey{r.addr.Card, r.addr.Addr.Bus, r.addr.Addr.Chip}
		if _, ok := buckets[k]; !ok {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], r)
	}
	out := make([]pageRef, 0, len(refs))
	for len(out) < len(refs) {
		for _, k := range order {
			if b := buckets[k]; len(b) > 0 {
				out = append(out, b[0])
				buckets[k] = b[1:]
			}
		}
	}
	return out
}

// TestChipInterleaveMatchesReference feeds random partitions — skewed
// onto a few chips, spread over all of them, empty, single — through
// one System's interleave scratch, reused from run to run, and holds its order to the reference model's, page for
// page.
func TestChipInterleaveMatchesReference(t *testing.T) {
	p := core.DefaultParams(2)
	g := p.Geometry
	c, err := core.NewCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(c, sched.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(c, s, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	keys := p.CardsPerNode * g.Buses * g.ChipsPerBus
	rng := sim.NewRNG(11)
	var dst []pageRef
	for run := 0; run < 300; run++ {
		n := rng.Intn(300)
		if run%10 == 0 {
			n = run / 10 % 2 // empty and single-page partitions
		}
		chips := 1 + rng.Intn(keys)
		refs := make([]pageRef, n)
		for i := range refs {
			c := rng.Intn(chips)
			refs[i] = pageRef{qidx: i, addr: core.PageAddr{Node: 1,
				Card: c / (g.Buses * g.ChipsPerBus) % p.CardsPerNode,
				Addr: nand.Addr{Bus: c / g.ChipsPerBus % g.Buses, Chip: c % g.ChipsPerBus, Block: rng.Intn(4), Page: rng.Intn(8)}}}
		}
		want := refChipInterleave(refs)
		dst = sys.chipInterleave(dst, refs)
		if len(want) == 0 && len(dst) == 0 {
			continue
		}
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("run %d (%d pages on %d chips): order differs from the reference", run, n, chips)
		}
	}
	for k, n := range sys.iv.end {
		if n != 0 {
			t.Fatalf("chip key %d kept a count of %d past its run", k, n)
		}
	}
	refs := append([]pageRef(nil), dst...)
	if a := alloctest.Mallocs(20, func() { dst = sys.chipInterleave(dst, refs) }); a != 0 {
		t.Fatalf("20 runs into grown buffers cost %d allocations", a)
	}
}
