package search

// Distributed-scan support: the striped logical volume puts adjacent
// logical pages on different cards — usually different NODES — so the
// per-node engines of a distributed search each see a non-contiguous
// subset of the haystack. Every engine scans its pages independently
// (scanner state reset per page, which finds exactly the matches fully
// inside a page), and ships the page-boundary residues — the first and
// last len(needle)-1 bytes of each page — to the origin alongside its
// match offsets. The origin then stitches each page junction from the
// two residues and scans it for the straddling matches no single
// engine could see. Residues are tiny (2·(m-1) bytes per page), so
// this preserves the ISP property that only match positions plus a
// trickle of metadata ever leave the storage device.

// EdgeLen returns the page-boundary residue length for this pattern:
// the longest prefix/suffix of a page a straddling match can overlap.
func (p *Pattern) EdgeLen() int { return len(p.needle) - 1 }

// EdgeBytes extracts one page's boundary residues: its first and last
// EdgeLen bytes (the whole page when shorter). The returned slices
// alias page and stay valid as long as it does (a read's page image
// is immutable). A caller that keeps the residues but not the page
// copies them, as ispvol's search partial does into one arena for all
// its pages.
func (p *Pattern) EdgeBytes(page []byte) (head, tail []byte) {
	n := p.EdgeLen()
	if n <= 0 {
		return nil, nil
	}
	if n > len(page) {
		n = len(page)
	}
	return page[:n], page[len(page)-n:]
}

// JunctionMatches scans the boundary between two adjacent pages given
// the left page's tail residue and the right page's head residue, and
// returns the absolute start offsets of matches that STRADDLE the
// boundary (at absolute offset `boundary`). Matches fully inside
// either page are found by that page's engine and excluded here, so
// the union of per-page and junction matches is exact and
// duplicate-free.
func (p *Pattern) JunctionMatches(tail, head []byte, boundary int64) []int64 {
	n := p.EdgeLen()
	if n <= 0 {
		return nil // a 1-byte needle cannot straddle a boundary
	}
	start := boundary - int64(len(tail))
	sc := p.NewScanner()
	sc.Reset(start)
	var out []int64
	emit := func(pos int64) {
		// Straddlers start before the boundary and end after it. A
		// match ending exactly at the boundary lives in the left page;
		// one starting at it lives in the right page.
		if pos < boundary && pos+int64(len(p.needle)) > boundary {
			out = append(out, pos)
		}
	}
	sc.Feed(tail, emit)
	sc.Feed(head, emit)
	return out
}
