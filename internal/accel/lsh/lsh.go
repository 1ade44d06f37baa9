// Package lsh implements BlueDBM's nearest-neighbor search accelerator
// (paper §7.1): Locality Sensitive Hashing over large binary items,
// with the Hamming-distance scan performed by an in-store processor
// next to the flash that holds the dataset.
//
// The LSH index itself (hash tables over sampled bit positions) is
// real and lives in host software; the accelerated portion — stream a
// hash bucket's item addresses to the device, compare every item
// against the query, return the best match — is what the evaluation's
// Figures 16-19 measure under different storage backends.
//
// The in-store arm runs HammingDistance on ispvol's engine
// (ispvol.NearestNeighbor). The four host backends (runner.go) are one
// run — workers sharing the candidate list over sim.Lanes, one
// best-match compare, one software compare stage, one join — and differ
// only in their fetch stage: how a candidate reaches the host
// comparator (DRAM, flash over PCIe, DRAM with spill, SSD).
package lsh

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Index errors.
var (
	ErrItemSize = errors.New("lsh: items must all have the identical size")
	ErrNoItems  = errors.New("lsh: index is empty")
)

// HammingDistance counts differing bits between two equal-length byte
// slices — the distance function both the ISP engine and the software
// baselines compute (for real) on item pages.
func HammingDistance(a, b []byte) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("lsh: hamming over different lengths %d vs %d", len(a), len(b)))
	}
	d := 0
	i := 0
	for ; i+8 <= len(a); i += 8 {
		x := le64(a[i:]) ^ le64(b[i:])
		d += bits.OnesCount64(x)
	}
	for ; i < len(a); i++ {
		d += bits.OnesCount8(a[i] ^ b[i])
	}
	return d
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Index is a bit-sampling LSH index for Hamming space: table t hashes
// an item by concatenating `bitsPerHash` sampled bit positions.
// Similar items collide in at least one table with high probability.
type Index struct {
	itemBytes int
	tables    []table
	numItems  int
}

type table struct {
	positions []int            // sampled bit positions
	buckets   map[uint64][]int // hash -> item ids
}

// NewIndex creates an empty index for items of itemBytes bytes, with
// numTables hash tables of bitsPerHash sampled bits each.
func NewIndex(itemBytes, numTables, bitsPerHash int, seed uint64) (*Index, error) {
	if itemBytes <= 0 || numTables <= 0 || bitsPerHash <= 0 || bitsPerHash > 64 {
		return nil, fmt.Errorf("lsh: bad index shape (%d bytes, %d tables, %d bits)",
			itemBytes, numTables, bitsPerHash)
	}
	rng := sim.NewRNG(seed)
	ix := &Index{itemBytes: itemBytes}
	for t := 0; t < numTables; t++ {
		tb := table{buckets: make(map[uint64][]int)}
		for b := 0; b < bitsPerHash; b++ {
			tb.positions = append(tb.positions, rng.Intn(itemBytes*8))
		}
		ix.tables = append(ix.tables, tb)
	}
	return ix, nil
}

// hash computes table t's bucket for an item.
func (ix *Index) hash(t int, item []byte) uint64 {
	var h uint64
	for _, pos := range ix.tables[t].positions {
		h <<= 1
		if item[pos/8]>>(uint(pos)%8)&1 == 1 {
			h |= 1
		}
	}
	return h
}

// Add inserts an item under id. The caller keeps item storage (flash
// pages); the index stores only ids.
func (ix *Index) Add(id int, item []byte) error {
	if len(item) != ix.itemBytes {
		return fmt.Errorf("%w: got %d want %d", ErrItemSize, len(item), ix.itemBytes)
	}
	for t := range ix.tables {
		h := ix.hash(t, item)
		ix.tables[t].buckets[h] = append(ix.tables[t].buckets[h], id)
	}
	ix.numItems++
	return nil
}

// Items returns the number of indexed items.
func (ix *Index) Items() int { return ix.numItems }

// Candidates returns the ids sharing a bucket with the query in any
// table, deduplicated, in deterministic order. This is the address
// stream the host sends to the in-store processor.
func (ix *Index) Candidates(query []byte) ([]int, error) {
	if len(query) != ix.itemBytes {
		return nil, fmt.Errorf("%w: got %d want %d", ErrItemSize, len(query), ix.itemBytes)
	}
	if ix.numItems == 0 {
		return nil, ErrNoItems
	}
	seen := make(map[int]bool)
	var out []int
	for t := range ix.tables {
		for _, id := range ix.tables[t].buckets[ix.hash(t, query)] {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out, nil
}

// NearestBrute scans items (id -> bytes) exhaustively; the reference
// the accelerated paths are validated against.
func NearestBrute(query []byte, items map[int][]byte) (bestID, bestDist int) {
	bestID, bestDist = -1, int(^uint(0)>>1)
	//simlint:allow maprange (lowest-distance-then-lowest-id selection reaches the same winner in any iteration order)
	for id, item := range items {
		if d := HammingDistance(query, item); d < bestDist || (d == bestDist && id < bestID) {
			bestID, bestDist = id, d
		}
	}
	return bestID, bestDist
}
