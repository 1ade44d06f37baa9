// Package workload provides deterministic data generators for the
// experiments and examples: random binary items for nearest-neighbor
// search, text documents and DNA-like sequences for string search, and
// query/item sets with planted near-duplicates so that similarity
// search has ground truth.
//
// It is also the experiment harness: Build composes an appliance from
// a StackSpec (stack.go), Stack.Run is the one closed-loop driver of
// client streams over page surfaces and Stack.Measure runs it inside
// one measured window (logical.go). RunClosedLoop turns physical
// streams into a surface over the linear page space plus a picker
// each, and runs them through Stack.Run (streams.go).
package workload

import (
	"fmt"

	"repro/internal/sim"
)

// PageFiller produces the content of page idx into page.
type PageFiller func(idx int, page []byte)

// RandomPages returns a filler producing seeded random bytes, stable
// across calls for the same (seed, idx).
func RandomPages(seed uint64) PageFiller {
	return func(idx int, page []byte) {
		rng := sim.NewRNG(seed ^ uint64(idx)*0x9e3779b97f4a7c15)
		rng.Bytes(page)
	}
}

// words is a small vocabulary for text-like documents.
var words = []string{
	"flash", "storage", "network", "latency", "bandwidth", "analytics",
	"accelerator", "controller", "query", "genome", "twitter", "rack",
	"cluster", "dataset", "random", "access", "dram", "cost", "power",
	"appliance", "processor", "switch", "endpoint", "token",
}

// TextPages returns a filler producing space-separated words, with the
// literal `needle` planted at the middle of every page whose index is
// a multiple of plantEvery (0 = never).
func TextPages(seed uint64, needle string, plantEvery int) PageFiller {
	return func(idx int, page []byte) {
		rng := sim.NewRNG(seed ^ uint64(idx)*0x517cc1b727220a95)
		pos := 0
		for pos < len(page) {
			w := words[rng.Intn(len(words))]
			n := copy(page[pos:], w)
			pos += n
			if pos < len(page) {
				page[pos] = ' '
				pos++
			}
		}
		if plantEvery > 0 && idx%plantEvery == 0 && len(needle) <= len(page)/2 {
			copy(page[len(page)/2:], needle)
		}
	}
}

// DNAPages returns a filler producing ACGT sequences with `motif`
// planted near the start of every page whose index is a multiple of
// plantEvery.
func DNAPages(seed uint64, motif string, plantEvery int) PageFiller {
	const bases = "ACGT"
	return func(idx int, page []byte) {
		rng := sim.NewRNG(seed ^ uint64(idx)*0x2545f4914f6cdd1d)
		for i := range page {
			page[i] = bases[rng.Intn(4)]
		}
		if plantEvery > 0 && idx%plantEvery == 0 && len(motif) < len(page)-8 {
			copy(page[8:], motif)
		}
	}
}

// NearDuplicateSet generates n items of itemBytes bytes plus a query
// that is item `target` with flippedBits random bit flips — ground
// truth for nearest-neighbor experiments.
func NearDuplicateSet(n, itemBytes, target, flippedBits int, seed uint64) (items map[int][]byte, query []byte, err error) {
	if target < 0 || target >= n {
		return nil, nil, fmt.Errorf("workload: target %d out of range [0,%d)", target, n)
	}
	rng := sim.NewRNG(seed)
	items = make(map[int][]byte, n)
	for i := 0; i < n; i++ {
		b := make([]byte, itemBytes)
		rng.Bytes(b)
		items[i] = b
	}
	query = append([]byte(nil), items[target]...)
	for k := 0; k < flippedBits; k++ {
		bit := rng.Intn(itemBytes * 8)
		query[bit/8] ^= 1 << (bit % 8)
	}
	return items, query, nil
}
