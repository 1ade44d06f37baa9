package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRandomPagesDeterministic(t *testing.T) {
	gen := RandomPages(7)
	a := make([]byte, 512)
	b := make([]byte, 512)
	gen(3, a)
	gen(3, b)
	if !bytes.Equal(a, b) {
		t.Fatal("same index produced different content")
	}
	gen(4, b)
	if bytes.Equal(a, b) {
		t.Fatal("different indices produced identical content")
	}
	// Different seeds differ.
	RandomPages(8)(3, b)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical content")
	}
}

func TestTextPagesPlantsNeedle(t *testing.T) {
	gen := TextPages(1, "NEEDLE", 4)
	page := make([]byte, 1024)
	gen(0, page)
	if !strings.Contains(string(page), "NEEDLE") {
		t.Fatal("needle not planted on index 0")
	}
	gen(1, page)
	if strings.Contains(string(page), "NEEDLE") {
		t.Fatal("needle planted on non-multiple index")
	}
	gen(4, page)
	if !strings.Contains(string(page), "NEEDLE") {
		t.Fatal("needle not planted on index 4")
	}
	// Text is word-like.
	gen(2, page)
	if !strings.Contains(string(page), " ") {
		t.Fatal("no word separators")
	}
}

func TestDNAPagesAlphabet(t *testing.T) {
	gen := DNAPages(2, "GATTACA", 3)
	page := make([]byte, 512)
	gen(1, page)
	for i, c := range page {
		switch c {
		case 'A', 'C', 'G', 'T':
		default:
			t.Fatalf("non-base byte %q at %d", c, i)
		}
	}
	gen(3, page)
	if !strings.Contains(string(page), "GATTACA") {
		t.Fatal("motif not planted")
	}
}

func TestNearDuplicateSet(t *testing.T) {
	items, query, err := NearDuplicateSet(10, 256, 4, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 10 {
		t.Fatalf("items = %d", len(items))
	}
	// Query differs from the target by at most 12 bits (flips can
	// collide) and from others by ~1024 bits.
	diff := func(a, b []byte) int {
		n := 0
		for i := range a {
			x := a[i] ^ b[i]
			for ; x != 0; x &= x - 1 {
				n++
			}
		}
		return n
	}
	if d := diff(query, items[4]); d == 0 || d > 12 {
		t.Fatalf("target distance %d, want 1..12", d)
	}
	if d := diff(query, items[5]); d < 800 {
		t.Fatalf("non-target distance %d suspiciously small", d)
	}
	if _, _, err := NearDuplicateSet(10, 256, 99, 1, 5); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestZipfDeterministicAndSkewed(t *testing.T) {
	z := newZipf(480, 0.99)
	r1 := sim.NewRNG(9)
	r2 := sim.NewRNG(9)
	counts := map[int]int{}
	for i := 0; i < 20000; i++ {
		a := z.sample(r1)
		if b := z.sample(r2); a != b {
			t.Fatalf("sample %d: %d != %d with equal seeds", i, a, b)
		}
		if a < 0 || a >= 480 {
			t.Fatalf("sample %d out of range", a)
		}
		counts[a]++
	}
	// The hottest page of a theta=0.99 Zipf over 480 items draws ~15%
	// of traffic; uniform would give ~0.2% each.
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if max < 20000/50 {
		t.Fatalf("distribution not skewed: hottest page got %d/20000", max)
	}
}
