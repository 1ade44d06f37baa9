package ispvol

// Nearest-neighbor kernel (paper §7.1 at cluster scale): the
// host-resident LSH index produces a candidate list — item ids and
// the source pages holding them — and a Hamming engine compares every
// candidate against the query inline, next to the flash; Figures
// 16-19's in-store arm is this query on one node. Only each node's
// best candidate crosses the network back to the origin, which keeps
// the final merge. The host-mediated placement hauls every candidate page
// over PCIe and compares in software at accel/lsh's calibrated
// per-page CPU cost — Figures 16/19's software arm, under the same
// QoS roof as everything else.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/accel/lsh"
	"repro/internal/sim"
)

// NNResult reports one nearest-neighbor query.
type NNResult struct {
	BestID      int // -1 when no candidate could be compared
	BestDist    int
	Comparisons int64
	Pages       int
	FailedPages int      // candidate pages whose read failed
	Elapsed     sim.Time // query start to result-in-host-memory
	CmpPerSec   float64
}

var (
	// ErrBadCandidates reports a candidate list whose ids and pages
	// differ in length.
	ErrBadCandidates = errors.New("ispvol: candidate ids and pages differ in length")
	// ErrBadItem reports a query item that is empty or larger than a
	// page.
	ErrBadItem = errors.New("ispvol: query item empty or larger than a page")
)

// NearestNeighbor finds the candidate closest to item in Hamming
// distance, ties to the lowest id — the same rule as lsh.NearestBrute.
// Candidate ids[i] lives in page pages[i] of src (the LSH index
// output). Asynchronous like Search.
func (sys *System) NearestNeighbor(origin int, src Source, item []byte, ids, pages []int, pl Placement, done func(*NNResult, error)) {
	if len(ids) != len(pages) {
		done(nil, fmt.Errorf("%w: %d ids but %d pages", ErrBadCandidates, len(ids), len(pages)))
		return
	}
	if len(item) == 0 || len(item) > sys.c.Params.PageSize() {
		done(nil, fmt.Errorf("%w: %d bytes (page is %d)", ErrBadItem, len(item), sys.c.Params.PageSize()))
		return
	}
	if pages == nil {
		pages = []int{} // an empty candidate list, not "every page of src"
	}
	k := &nnKernel{nnPartial{item: item, ids: ids, bestID: -1, bestDist: math.MaxInt}}
	sys.run(origin, src, pages, k, pl, func(st queryStats, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		res := &NNResult{
			BestID:      k.bestID,
			BestDist:    k.bestDist,
			Comparisons: k.comparisons,
			Pages:       st.pages,
			FailedPages: st.failed,
			Elapsed:     st.elapsed,
			CmpPerSec:   st.rate(float64(k.comparisons)),
		}
		if res.BestID < 0 {
			res.BestDist = -1
		}
		done(res, nil)
	})
}

// nnPartial is the best candidate among the pages reduced so far.
type nnPartial struct {
	item        []byte
	ids         []int // candidate ids, indexed by a page's qidx
	bestID      int
	bestDist    int
	comparisons int64
}

// nnKernel's origin state is itself a partial: the best of the bests.
type nnKernel struct{ nnPartial }

// startBytes: the query item and a (4-byte id, 16-byte address) pair
// per candidate.
func (k *nnKernel) startBytes(refs int) int { return 32 + len(k.item) + 20*refs }

func (k *nnKernel) newPartial(int, int) partial {
	return &nnPartial{item: k.item, ids: k.ids, bestID: -1, bestDist: math.MaxInt}
}

func (k *nnKernel) hostCost(int) sim.Time { return lsh.HammingCPUPerPage }

// scan compares one candidate. ref.qidx keys the candidate id: engines
// scan their partitions chip-interleaved, not in fan-out order.
func (p *nnPartial) scan(ref pageRef, data []byte) bool {
	p.comparisons++
	p.offer(lsh.HammingDistance(p.item, data[:len(p.item)]), p.ids[ref.qidx])
	return true
}

// offer keeps (d, id) if it beats the incumbent: lowest distance, ties
// to the lowest id, so every placement agrees with lsh.NearestBrute
// even when distances tie.
func (p *nnPartial) offer(d, id int) {
	if d < p.bestDist || (d == p.bestDist && id < p.bestID) {
		p.bestID, p.bestDist = id, d
	}
}

// wireBytes: one (id, distance, count) triple under the header.
func (p *nnPartial) wireBytes() int { return 48 }

func (k *nnKernel) merge(p partial) {
	m := p.(*nnPartial)
	k.comparisons += m.comparisons
	if m.bestID >= 0 {
		k.offer(m.bestDist, m.bestID)
	}
}

// finish: the answer is one (id, distance) pair.
func (k *nnKernel) finish(int, int) int { return 16 }
