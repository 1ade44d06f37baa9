package ispvol

// String search kernel (paper §7.3 at cluster scale): a Morris-Pratt
// engine scans each page at line rate, and only match offsets plus
// tiny page-edge residues return to the origin, which stitches the
// page junctions no single engine could see (a striped source puts
// adjacent logical pages on different nodes).

import (
	"fmt"
	"sort"

	"repro/internal/accel/search"
	"repro/internal/rfs"
	"repro/internal/sim"
)

// SearchResult reports one search query.
type SearchResult struct {
	// Matches holds the byte offsets of every occurrence, relative to
	// the start of the source, sorted.
	Matches     []int64
	Pages       int
	FailedPages int      // pages whose read failed (their matches are lost)
	Bytes       int64    // haystack bytes scanned
	Elapsed     sim.Time // query start to merged-result-in-host-memory
	Throughput  float64  // bytes/second
}

// Search finds every occurrence of needle in src, with the query
// originating (and results merging) at node origin. It is
// asynchronous: done fires in virtual time once the result is in the
// origin host's memory; the caller drives the engine (Cluster.Run, an
// enclosing workload window, or Sync). The result shape is the same
// under both placements, so they cross-validate match-for-match; what
// differs is who moves and touches the bytes.
func (sys *System) Search(origin int, src Source, needle []byte, pl Placement, done func(*SearchResult, error)) {
	pat, err := search.Compile(needle)
	if err != nil {
		done(nil, err)
		return
	}
	k := &searchKernel{needle: needle, pat: pat}
	sys.run(origin, src, nil, k, pl, func(st queryStats, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		bytes := int64(st.pages) * int64(st.ps)
		done(&SearchResult{
			Matches:     k.matches,
			Pages:       st.pages,
			FailedPages: st.failed,
			Bytes:       bytes,
			Elapsed:     st.elapsed,
			Throughput:  st.rate(float64(bytes)),
		}, nil)
	})
}

// SearchFile is Search(origin, File(f), needle, InStore, done) under
// the name the frozen benchmark (bench/) calls.
func (sys *System) SearchFile(origin int, f *rfs.File, needle []byte, done func(*SearchResult, error)) {
	sys.Search(origin, File(f), needle, InStore, done)
}

// searchKernel carries the pattern to the engines and stitches their
// partials at the origin.
type searchKernel struct {
	needle  []byte
	pat     *search.Pattern
	parts   []*searchPartial
	matches []int64
}

// searchPartial is the matches inside one engine's pages plus the
// per-page edge residues for junction stitching. The residues of all
// its pages share one arena: the page that pages[j] names has the two
// halves of edges[pages[j-1].end:pages[j].end] as its head and tail.
type searchPartial struct {
	pat     *search.Pattern
	sc      *search.Scanner
	ps      int
	matches []int64
	pages   []edgePage
	edges   []byte
}

// edgePage is one scanned page of a search partial: its index in the
// query's page list and the end of its residues in the edge arena.
type edgePage struct{ qidx, end int }

// startBytes: the pattern (needle + MP failure table) and a 16-byte
// address per page.
func (k *searchKernel) startBytes(refs int) int {
	return 32 + len(k.needle) + 4*(len(k.needle)+1) + 16*refs
}

// newPartial compiles the needle afresh, as the engine receiving the
// wire pattern would, and sizes the page list and the edge arena for
// pages pages.
func (k *searchKernel) newPartial(ps, pages int) partial {
	pat, err := search.Compile(k.needle)
	if err != nil {
		// Search compiled the same needle before starting the query.
		panic(fmt.Sprintf("ispvol: uncompilable needle reached an engine: %v", err))
	}
	edge := min(pat.EdgeLen(), ps)
	return &searchPartial{pat: pat, sc: pat.NewScanner(), ps: ps,
		pages: make([]edgePage, 0, pages), edges: make([]byte, 0, 2*edge*pages)}
}

func (k *searchKernel) hostCost(ps int) sim.Time {
	return sim.Time(ps) * search.GrepCPUPerByte * sim.Nanosecond
}

// scan runs the page with fresh matcher state: a partition's pages are
// not logically adjacent, so only matches fully inside a page can be
// found here; straddlers are the origin's junction pass.
func (p *searchPartial) scan(ref pageRef, data []byte) bool {
	p.sc.Reset(int64(ref.qidx) * int64(p.ps))
	p.sc.Feed(data, func(pos int64) {
		p.matches = append(p.matches, pos)
	})
	h, t := p.pat.EdgeBytes(data)
	p.edges = append(append(p.edges, h...), t...)
	p.pages = append(p.pages, edgePage{qidx: ref.qidx, end: len(p.edges)})
	return true
}

// wireBytes: the matches, a 4-byte page index and the residues per page.
func (p *searchPartial) wireBytes() int {
	return 32 + 8*len(p.matches) + 4*len(p.pages) + len(p.edges)
}

func (k *searchKernel) merge(p partial) { k.parts = append(k.parts, p.(*searchPartial)) }

// finish stitches the page junctions from the collected edge residues
// and sorts the match list.
func (k *searchKernel) finish(pages, ps int) int {
	heads, tails := make([][]byte, pages), make([][]byte, pages)
	for _, p := range k.parts {
		k.matches = append(k.matches, p.matches...)
		start := 0
		for _, pg := range p.pages {
			e := p.edges[start:pg.end]
			heads[pg.qidx], tails[pg.qidx] = e[:len(e)/2], e[len(e)/2:]
			start = pg.end
		}
	}
	for b := 1; b < pages; b++ {
		k.matches = append(k.matches,
			k.pat.JunctionMatches(tails[b-1], heads[b], int64(b)*int64(ps))...)
	}
	sort.Slice(k.matches, func(i, j int) bool { return k.matches[i] < k.matches[j] })
	return 8 * len(k.matches)
}
