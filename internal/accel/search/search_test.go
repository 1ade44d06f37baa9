package search

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/alloctest"
	"repro/internal/altstore"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

func TestCompileFailureFunction(t *testing.T) {
	p, err := Compile([]byte("ababaca"))
	if err != nil {
		t.Fatal(err)
	}
	// Known MP failure function for "ababaca" (border lengths).
	want := []int{-1, 0, 0, 1, 2, 3, 0, 1}
	for i, w := range want {
		if p.fail[i] != w {
			t.Fatalf("fail[%d] = %d, want %d (full: %v)", i, p.fail[i], w, p.fail)
		}
	}
	if _, err := Compile(nil); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

func TestFindAllBasic(t *testing.T) {
	p, _ := Compile([]byte("abc"))
	got := p.FindAll([]byte("abcxabcabc"))
	want := []int64{0, 4, 7}
	if len(got) != len(want) {
		t.Fatalf("matches %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("matches %v, want %v", got, want)
		}
	}
}

func TestOverlappingMatches(t *testing.T) {
	p, _ := Compile([]byte("aaa"))
	got := p.FindAll([]byte("aaaaa"))
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("overlapping matches %v, want [0 1 2]", got)
	}
}

// naiveFind is the oracle Feed is checked against: every position where
// needle occurs in hay, overlapping ones included, by bytes.Index alone.
func naiveFind(hay, needle []byte) []int64 {
	var out []int64
	for from := 0; ; {
		i := bytes.Index(hay[from:], needle)
		if i < 0 {
			return out
		}
		out = append(out, int64(from+i))
		from += i + 1
	}
}

// feedChunked streams hay through a fresh scanner in chunks of random
// length, empty ones included, and returns what it emitted.
func feedChunked(p *Pattern, hay []byte, rng *sim.RNG) []int64 {
	sc := p.NewScanner()
	var got []int64
	for rest := hay; len(rest) > 0; {
		n := rng.Intn(len(rest) + 1)
		if rng.Intn(4) == 0 {
			n = rng.Intn(4) // short and empty chunks, often
		}
		n = min(n, len(rest))
		sc.Feed(rest[:n], func(pos int64) { got = append(got, pos) })
		rest = rest[n:]
	}
	return got
}

func equalPositions(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: random needles over random haystacks, streamed in random
// chunkings, equal the bytes.Index oracle — same matches, same order.
// The alphabets are small so that matches, partial matches and
// overlaps happen: with two letters nearly every byte is needle[0]
// (the scan never leaves Morris-Pratt), with eight most are not (it
// mostly skips).
func TestScannerOracleProperty(t *testing.T) {
	prop := func(hay []byte, needleLen uint8, alphabet uint8, seed uint64) bool {
		rng := sim.NewRNG(seed)
		letters := 2 + int(alphabet%7)
		for i := range hay {
			hay[i] = 'a' + hay[i]%byte(letters)
		}
		needle := make([]byte, 1+int(needleLen%6))
		for i := range needle {
			needle[i] = 'a' + byte(rng.Intn(letters))
		}
		p, err := Compile(needle)
		if err != nil {
			return false
		}
		return equalPositions(feedChunked(p, hay, rng), naiveFind(hay, needle))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The named corners of the skip: overlapping matches, a match split
// over two (and over three) chunks with the cut at every position, a
// one-byte needle, and a nil emit, which must still carry the state
// and the offset into the next chunk.
func TestFeedCorners(t *testing.T) {
	for _, tc := range []struct{ needle, hay string }{
		{"aaa", "aaaaa"},
		{"a", "abaab"},
		{"needle", "xxxneedlexxxneeneedlexx"},
		{"abab", "xabababxxababx"},
		{"ab", "bbbbabbbbbbbbbbbbbbbbbbbab"},
		{"x", ""},
	} {
		p, err := Compile([]byte(tc.needle))
		if err != nil {
			t.Fatal(err)
		}
		hay := []byte(tc.hay)
		want := naiveFind(hay, []byte(tc.needle))
		for a := 0; a <= len(hay); a++ {
			for b := a; b <= len(hay); b++ {
				sc := p.NewScanner()
				var got []int64
				emit := func(pos int64) { got = append(got, pos) }
				sc.Feed(hay[:a], emit)
				sc.Feed(hay[a:b], emit)
				sc.Feed(hay[b:], emit)
				if !equalPositions(got, want) {
					t.Fatalf("%q in %q cut at %d,%d: %v, want %v", tc.needle, tc.hay, a, b, got, want)
				}

				// The same with the first chunk's matches dropped.
				sc.Reset(0)
				got = got[:0]
				sc.Feed(hay[:a], nil)
				sc.Feed(hay[a:], emit)
				var wantTail []int64
				for _, pos := range want {
					if pos+int64(len(tc.needle)) > int64(a) {
						wantTail = append(wantTail, pos)
					}
				}
				if !equalPositions(got, wantTail) {
					t.Fatalf("%q in %q, nil emit before %d: %v, want %v", tc.needle, tc.hay, a, got, wantTail)
				}
			}
		}
	}
}

// Feed is the in-store engines' per-page kernel: it must not allocate.
func TestFeedDoesNotAllocate(t *testing.T) {
	hay, rare, common := benchHaystack()
	for _, needle := range [][]byte{rare, common} {
		p, _ := Compile(needle)
		sc := p.NewScanner()
		matches := 0
		emit := func(int64) { matches++ }
		if n := alloctest.Mallocs(100, func() { sc.Feed(hay, emit) }); n != 0 {
			t.Fatalf("Feed(%q) allocates %d times over 100 pages", needle, n)
		}
		if matches == 0 {
			t.Fatalf("needle %q never matched", needle)
		}
	}
}

// benchHaystack is one 8 KiB page of lower-case text with a few
// upper-case needles planted, the shape of the bench file-scan
// workload, and two needles that occur in it equally often: the first
// byte of rare occurs only where rare does, the first byte of common
// is one haystack byte in eight.
func benchHaystack() (hay, rare, common []byte) {
	hay = make([]byte, 8192)
	rng := sim.NewRNG(3)
	for i := range hay {
		hay[i] = 'a' + byte(rng.Intn(8))
	}
	rare, common = []byte("BLUEDBM"), []byte("aBLUEDB")
	for _, at := range []int{100, 4000, 8100} {
		copy(hay[at:], "aBLUEDBM")
	}
	return hay, rare, common
}

// BenchmarkFeed8K times the per-page kernel where the skip pays most
// (rare), where it pays least on text (common), and on its worst
// case: needle "ab" over "acac…" drops to state 0 on every other byte,
// so each skip is a call that advances one byte.
func BenchmarkFeed8K(b *testing.B) {
	hay, rare, common := benchHaystack()
	worst := bytes.Repeat([]byte("ac"), 4096)
	copy(worst[100:], "ab")
	for _, bc := range []struct {
		name    string
		needle  []byte
		hay     []byte
		perPage int
	}{
		{"first-byte-rare", rare, hay, 3},
		{"first-byte-common", common, hay, 3},
		{"first-byte-every-other", []byte("ab"), worst, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p, _ := Compile(bc.needle)
			sc := p.NewScanner()
			matches := 0
			emit := func(int64) { matches++ }
			b.SetBytes(int64(len(bc.hay)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Feed(bc.hay, emit)
			}
			if matches != bc.perPage*b.N {
				b.Fatalf("%d matches in %d pages", matches, b.N)
			}
		})
	}
}

// haystackGen builds deterministic text pages with needles planted at
// known positions.
func haystackGen(needle string, everyPages int, pageSize int) func(idx int, page []byte) {
	return func(idx int, page []byte) {
		for i := range page {
			page[i] = "abcdefgh"[(idx*31+i)%8]
		}
		if everyPages > 0 && idx%everyPages == 0 {
			// Plant one needle in the middle of the page (and one
			// spanning into the next page every 2*everyPages).
			copy(page[len(page)/2:], needle)
			if idx%(2*everyPages) == 0 && len(needle) > 1 {
				copy(page[len(page)-len(needle)/2:], needle[:len(needle)/2])
			}
		}
	}
}

func TestSearchSoftwareMatchesReference(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := hostmodel.New(eng, "h", hostmodel.DefaultConfig())
	ssd, _ := altstore.NewSSD(eng, "m2", altstore.DefaultSSD())
	needle := "BLUEDBM"
	const pages, pageSize = 48, 8192
	gen := haystackGen(needle, 4, pageSize)

	res, err := SearchSoftware(eng, cpu, ssd, pages, pageSize, gen, []byte(needle), 8)
	if err != nil {
		t.Fatal(err)
	}
	hay := make([]byte, pages*pageSize)
	for i := 0; i < pages; i++ {
		gen(i, hay[i*pageSize:(i+1)*pageSize])
	}
	pat, _ := Compile([]byte(needle))
	want := pat.FindAll(hay)
	if len(res.Matches) != len(want) {
		t.Fatalf("software found %d matches, reference %d", len(res.Matches), len(want))
	}
	for i := range want {
		if res.Matches[i] != want[i] {
			t.Fatalf("match %d differs", i)
		}
	}
}

func TestSearchSoftwareSSDBoundAndCPUHungry(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := hostmodel.New(eng, "h", hostmodel.DefaultConfig())
	ssd, _ := altstore.NewSSD(eng, "m2", altstore.DefaultSSD())
	res, err := SearchSoftware(eng, cpu, ssd, 512, 8192, nil, []byte("xyz"), 16)
	if err != nil {
		t.Fatal(err)
	}
	mb := res.Throughput / 1e6
	if mb < 350 || mb > 620 {
		t.Fatalf("software-on-SSD %.0f MB/s, want IO-bound near 500-600", mb)
	}
	if res.CPUUtil < 0.4 || res.CPUUtil > 0.8 {
		t.Fatalf("software-on-SSD CPU %.0f%%, want ~65%%", res.CPUUtil*100)
	}
}

func TestSearchSoftwareHDDSlow(t *testing.T) {
	eng := sim.NewEngine()
	cpu, _ := hostmodel.New(eng, "h", hostmodel.DefaultConfig())
	hdd, _ := altstore.NewHDD(eng, "disk", altstore.DefaultHDD())
	res, err := SearchSoftware(eng, cpu, hdd, 512, 8192, nil, []byte("xyz"), 16)
	if err != nil {
		t.Fatal(err)
	}
	mb := res.Throughput / 1e6
	if mb > 150 {
		t.Fatalf("software-on-HDD %.0f MB/s, want disk-bound (<=147)", mb)
	}
	if res.CPUUtil > 0.25 {
		t.Fatalf("software-on-HDD CPU %.0f%%, want low (~13%%)", res.CPUUtil*100)
	}
}

// TestEdgeBytesAndJunctions: the distributed-scan residue helpers
// find exactly the boundary-straddling matches, and nothing else.
func TestEdgeBytesAndJunctions(t *testing.T) {
	pat, err := Compile([]byte("abcde"))
	if err != nil {
		t.Fatal(err)
	}
	if pat.EdgeLen() != 4 {
		t.Fatalf("edge len %d, want 4", pat.EdgeLen())
	}
	left := []byte("xxxxxxabc")  // needle starts 3 bytes before the boundary
	right := []byte("dexxxxxxx") // and ends 2 bytes after it
	_, tail := pat.EdgeBytes(left)
	head, _ := pat.EdgeBytes(right)
	const boundary = int64(9)
	got := pat.JunctionMatches(tail, head, boundary)
	if len(got) != 1 || got[0] != 6 {
		t.Fatalf("junction matches = %v, want [6]", got)
	}
	// A match fully inside the left page must NOT be reported by the
	// junction pass (the page's engine already found it).
	leftFull := []byte("xabcdexxx")
	_, tail2 := pat.EdgeBytes(leftFull)
	if got := pat.JunctionMatches(tail2, head, boundary); len(got) != 0 {
		t.Fatalf("junction reported in-page match: %v", got)
	}
	// A match starting exactly at the boundary belongs to the right
	// page's engine.
	rightFull := []byte("abcdexxxx")
	head3, _ := pat.EdgeBytes(rightFull)
	empty := []byte("xxxxxxxxx")
	_, tail3 := pat.EdgeBytes(empty)
	if got := pat.JunctionMatches(tail3, head3, boundary); len(got) != 0 {
		t.Fatalf("junction reported right-page match: %v", got)
	}
}

// TestJunctionSingleByteNeedle: a 1-byte needle cannot straddle.
func TestJunctionSingleByteNeedle(t *testing.T) {
	pat, err := Compile([]byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	if pat.EdgeLen() != 0 {
		t.Fatalf("edge len %d, want 0", pat.EdgeLen())
	}
	h, tl := pat.EdgeBytes([]byte("qqq"))
	if h != nil || tl != nil {
		t.Fatal("1-byte needle produced residues")
	}
	if got := pat.JunctionMatches([]byte("q"), []byte("q"), 10); got != nil {
		t.Fatalf("1-byte junction matches = %v", got)
	}
}
