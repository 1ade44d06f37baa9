// Package search implements BlueDBM's string search kernel (paper
// §7.3): the Morris-Pratt pattern matcher, the page-edge residues a
// striped scan stitches at its origin (dist.go), and the software grep
// baseline of Figure 21 (runner.go). The in-store arm runs the kernel
// on ispvol's engine (ispvol.Search): the host transfers the pattern
// and precomputed MP constants and receives only match locations,
// while the scan runs next to the flash at full device bandwidth with
// near-zero host CPU.
//
// A scanner carries state from page to page, so the grep baseline
// gives every software shard a private contiguous page range and runs
// one sim.Lanes lane over each.
package search

import (
	"bytes"
	"errors"
	"fmt"
)

// ErrEmptyPattern rejects empty needles.
var ErrEmptyPattern = errors.New("search: empty pattern")

// Pattern holds a compiled needle: the pattern bytes plus the
// Morris-Pratt failure function (the "precomputed MP constants" the
// host DMAs to the accelerator).
type Pattern struct {
	needle []byte
	fail   []int
}

// Compile precomputes the MP failure function.
func Compile(needle []byte) (*Pattern, error) {
	if len(needle) == 0 {
		return nil, ErrEmptyPattern
	}
	p := &Pattern{
		needle: append([]byte(nil), needle...),
		fail:   make([]int, len(needle)+1),
	}
	// fail[i] = length of the longest proper border of needle[:i].
	p.fail[0] = -1
	k := -1
	for i := 0; i < len(needle); i++ {
		for k >= 0 && needle[k] != needle[i] {
			k = p.fail[k]
		}
		k++
		p.fail[i+1] = k
	}
	return p, nil
}

func (p *Pattern) String() string { return fmt.Sprintf("mp(%q)", p.needle) }

// Scanner is one streaming MP engine: bytes are fed in arbitrary
// chunks (flash pages) and match end-positions are emitted. State
// carries across chunk boundaries, so matches spanning pages are
// found — the property that lets engines scan page streams directly.
type Scanner struct {
	p      *Pattern
	state  int
	offset int64 // absolute position of the next byte to be fed
}

// NewScanner starts a scan at absolute offset 0.
func (p *Pattern) NewScanner() *Scanner {
	return &Scanner{p: p}
}

// Reset rewinds the scanner to the given absolute offset with clean
// match state (used when an engine jumps to a new haystack segment).
func (s *Scanner) Reset(offset int64) {
	s.state = 0
	s.offset = offset
}

// Feed scans one chunk, calling emit with the absolute start position
// of every match.
//
// In state 0 (no prefix of the needle matched) a byte other than
// needle[0] leaves the state at 0, so the scan jumps straight to the
// next needle[0] with bytes.IndexByte instead of stepping the failure
// function over every byte in between; from there on it is plain
// Morris-Pratt, and the state carried across chunks is the same.
//
//simlint:hotpath
func (s *Scanner) Feed(chunk []byte, emit func(pos int64)) {
	needle, fail := s.p.needle, s.p.fail
	k := s.state
	for i := 0; i < len(chunk); i++ {
		if k == 0 {
			skip := bytes.IndexByte(chunk[i:], needle[0])
			if skip < 0 {
				break
			}
			i += skip
		}
		c := chunk[i]
		for k >= 0 && needle[k] != c {
			k = fail[k]
		}
		k++
		if k == len(needle) {
			if emit != nil {
				emit(s.offset + int64(i) + 1 - int64(len(needle)))
			}
			k = fail[k]
		}
	}
	s.state = k
	s.offset += int64(len(chunk))
}

// FindAll returns every match position in a byte slice (reference
// implementation used by tests and the software-grep baseline).
//
//simlint:allow unused (reference model: the software grep the scanner tests compare against)
func (p *Pattern) FindAll(haystack []byte) []int64 {
	var out []int64
	sc := p.NewScanner()
	sc.Feed(haystack, func(pos int64) { out = append(out, pos) })
	return out
}
