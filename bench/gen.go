package main

// The load generator's own randomness and page contents. Nothing here
// imports the program under test: the op streams and the bytes they
// carry are a function of -seed alone, so they cannot change when the
// program does.

import (
	"encoding/binary"
	"math"
	"sort"
)

// rng is splitmix64.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	r := &rng{s: seed}
	r.next()
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// zipf samples [0,n) with probability proportional to 1/(rank+1)^theta
// from an explicit CDF; ranks are scattered over the range by a
// multiplicative hash so the hot pages do not share one flash bus.
type zipf struct {
	cdf []float64
}

const zipfTheta = 0.99

func newZipf(n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), zipfTheta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) sample(r *rng) int {
	n := len(z.cdf)
	rank := sort.SearchFloat64s(z.cdf, r.float())
	if rank >= n {
		rank = n - 1
	}
	return scatter(rank, n)
}

// pattern is a bulk stream's address distribution over [0,n).
type pattern uint8

const (
	patUniform pattern = iota
	patZipf
	patSeq
	numPatterns
)

// seqRun is how many consecutive pages a sequential stream reads before
// it jumps to a new random start. Unbounded runs would let two closed-
// loop sequential streams that once meet coalesce into lockstep for the
// rest of the run, at a time that depends on the seed.
const seqRun = 64

// picker draws addresses for one stream.
type picker struct {
	pat  pattern
	n    int
	r    *rng
	z    *zipf // shared per n
	cur  int   // sequential cursor
	left int   // pages left in the sequential run
}

func (p *picker) pick() int {
	switch p.pat {
	case patZipf:
		return p.z.sample(p.r)
	case patSeq:
		if p.left == 0 {
			p.cur, p.left = p.r.intn(p.n), seqRun
		}
		p.left--
		if p.cur++; p.cur >= p.n {
			p.cur = 0
		}
		return p.cur
	default:
		return p.r.intn(p.n)
	}
}

// --- page stamps -------------------------------------------------------

// Every page the generator writes starts with a 32-byte stamp
//
//	magic u32 | space u32 | lpn u64 | version u64 | sum u64
//
// followed by 64-bit words drawn from a stream keyed by (seed, space,
// lpn, version), so a reader that knows which version it may see can
// recompute the whole page. space separates address spaces that reuse
// page numbers (one per node for raw flash, one per file).
const (
	stampMagic = 0xB1DEDB70
	stampBytes = 32
)

// stamper fills and checks pages for one seed.
type stamper struct {
	seed uint64
	// sampled counts stamp checks; every 64th gets the full compare.
	checks uint64
}

func (s *stamper) key(space uint32, lpn uint64, ver uint64) uint64 {
	return mix64(s.seed ^ mix64(uint64(space)<<40^lpn) ^ mix64(ver+0x51ed27))
}

// fill writes the stamped page for (space, lpn, ver) into page.
func (s *stamper) fill(page []byte, space uint32, lpn, ver uint64) {
	k := s.key(space, lpn, ver)
	binary.LittleEndian.PutUint32(page[0:], stampMagic)
	binary.LittleEndian.PutUint32(page[4:], space)
	binary.LittleEndian.PutUint64(page[8:], lpn)
	binary.LittleEndian.PutUint64(page[16:], ver)
	binary.LittleEndian.PutUint64(page[24:], mix64(k))
	for off := stampBytes; off+8 <= len(page); off += 8 {
		k += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(page[off:], mix64(k))
	}
}

// check verifies a page read for (space, lpn): the stamp must be
// intact and name this page, its version must lie in [lo, hi], and the
// payload must be the one that version was written with — three words
// on every read, every word on one read in 64.
func (s *stamper) check(page []byte, space uint32, lpn, lo, hi uint64) bool {
	if len(page) < stampBytes ||
		binary.LittleEndian.Uint32(page[0:]) != stampMagic ||
		binary.LittleEndian.Uint32(page[4:]) != space ||
		binary.LittleEndian.Uint64(page[8:]) != lpn {
		return false
	}
	ver := binary.LittleEndian.Uint64(page[16:])
	if ver < lo || ver > hi {
		return false
	}
	k := s.key(space, lpn, ver)
	if binary.LittleEndian.Uint64(page[24:]) != mix64(k) {
		return false
	}
	words := (len(page) - stampBytes) / 8
	word := func(i int) bool {
		want := mix64(k + uint64(i+1)*0x9e3779b97f4a7c15)
		return binary.LittleEndian.Uint64(page[stampBytes+8*i:]) == want
	}
	s.checks++
	if s.checks%64 == 0 {
		for i := 0; i < words; i++ {
			if !word(i) {
				return false
			}
		}
		return true
	}
	return word(0) && word(words-1) && word(int(k%uint64(words)))
}

// --- versions ----------------------------------------------------------

// versions is the generator's record of what it has written to the
// pages of one address space. It keeps at most one write of a page in
// flight (busy), so a page's versions are totally ordered: a read
// issued after version v was acknowledged must return v or later, and
// never a version not yet issued.
type versions struct {
	st            *stamper
	space         uint32
	issued, acked []uint32
	busy          []bool
	buf           []byte // write payload scratch; every layer snapshots it before returning
}

func newVersions(st *stamper, space uint32, pages, pageSize int) *versions {
	return &versions{st: st, space: space, issued: make([]uint32, pages), acked: make([]uint32, pages),
		busy: make([]bool, pages), buf: make([]byte, pageSize)}
}

// settled stamps version ver of page into the scratch buffer and
// records it as written and acknowledged: for seeding and ageing, which
// run the engine dry before any reader starts.
func (v *versions) settled(page int, ver uint32) []byte {
	v.issued[page], v.acked[page] = ver, ver
	v.st.fill(v.buf, v.space, uint64(page), uint64(ver))
	return v.buf
}

// idle returns the first page at or after page, stepping by step and
// wrapping inside [lo,hi), that has no write in flight.
func (v *versions) idle(page, lo, hi, step int) int {
	for v.busy[page] {
		if page += step; page >= hi {
			page = lo + page%step
		}
	}
	return page
}

// next starts a write: it stamps page's next version into the scratch
// buffer and returns the version.
func (v *versions) next(page int) uint64 {
	v.busy[page] = true
	v.issued[page]++
	v.st.fill(v.buf, v.space, uint64(page), uint64(v.issued[page]))
	return uint64(v.issued[page])
}

// wrote ends a write.
func (v *versions) wrote(page int, ver uint64, err error) {
	v.busy[page] = false
	if err == nil {
		v.acked[page] = uint32(ver)
	}
}

// floor is the oldest version a read of page issued now may return.
func (v *versions) floor(page int) uint64 { return uint64(v.acked[page]) }

// check verifies a completed read whose floor was taken at issue.
func (v *versions) check(data []byte, page int, floor uint64) bool {
	return v.st.check(data, v.space, uint64(page), floor, uint64(v.issued[page]))
}

// scatter maps 0..n-1 to distinct pages spread over [0,n).
func scatter(i, n int) int { return int(uint64(i) * 2654435761 % uint64(n)) }
