package ecc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// encodeReference is the original bit-at-a-time encoder. The
// table-driven Encode must agree with it on every input: the tables
// are a pure speed optimization and any divergence silently changes
// what every simulated flash page stores.
func encodeReference(data uint64) byte {
	var syndrome int
	parity := 0
	for i := 0; i < 64; i++ {
		if data>>uint(i)&1 == 1 {
			syndrome ^= dataPos[i]
			parity ^= 1
		}
	}
	for b := 0; b < 7; b++ {
		if syndrome>>uint(b)&1 == 1 {
			parity ^= 1
		}
	}
	return byte(syndrome) | byte(parity)<<7
}

func TestEncodeMatchesReference(t *testing.T) {
	// Structured corners: single bits, runs, all-ones, zero.
	words := []uint64{0, ^uint64(0)}
	for i := 0; i < 64; i++ {
		words = append(words, 1<<uint(i), ^uint64(0)>>uint(i), ^uint64(0)<<uint(i))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		words = append(words, rng.Uint64())
	}
	for _, w := range words {
		if got, want := Encode(w), encodeReference(w); got != want {
			t.Fatalf("Encode(%#x) = %#x, reference = %#x", w, got, want)
		}
	}
}

// refEncodeInPlace and refDecodeInPlace are the word-at-a-time loops
// the page kernels replaced, kept as what the kernels are checked
// against: one check byte per word from encodeReference, and one
// Decode per word, stopping at the first uncorrectable one with
// everything before it corrected in raw and everything after it
// untouched.
func refEncodeInPlace(raw []byte, pageSize int) {
	for i := 0; i < pageSize; i += 8 {
		raw[pageSize+i/8] = encodeReference(binary.LittleEndian.Uint64(raw[i:]))
	}
}

func refDecodeInPlace(raw []byte, pageSize int) (corrected int, err error) {
	data, oob := raw[:pageSize], raw[pageSize:]
	for i := 0; i < pageSize; i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		cw, n, err := Decode(w, oob[i/8])
		if err != nil {
			return 0, fmt.Errorf("word at byte %d: %w", i, err)
		}
		binary.LittleEndian.PutUint64(data[i:], cw)
		corrected += n
	}
	return corrected, nil
}

// decodeBothWays runs DecodePageInPlace on raw and the word loop on a
// copy, and fails unless they agree on everything a caller can see:
// verdict, error text, correction count, and every byte left in the
// buffer — on an uncorrectable page too. DecodePage, the decoder for
// shared images, must reach the same verdict and page on a third copy
// without writing one byte of it: a clean page comes back as a view of
// the input, one with anything to correct as a private copy.
func decodeBothWays(t *testing.T, c *PageCodec, raw []byte, what string) (DecodeResult, error) {
	t.Helper()
	ref := append([]byte(nil), raw...)
	shared := append([]byte(nil), raw...)
	wantFixed, wantErr := refDecodeInPlace(ref, c.PageSize())
	cow, cowErr := c.DecodePage(shared)
	switch {
	case !bytes.Equal(shared, raw):
		t.Fatalf("%s: DecodePage wrote to its input", what)
	case (cowErr == nil) != (wantErr == nil), cowErr != nil && cowErr.Error() != wantErr.Error():
		t.Fatalf("%s: DecodePage err %v, word loop %v", what, cowErr, wantErr)
	case cowErr == nil && (cow.Corrected != wantFixed || !bytes.Equal(cow.Data, ref[:c.PageSize()])):
		t.Fatalf("%s: DecodePage corrected %d (word loop %d) or delivers other bytes", what, cow.Corrected, wantFixed)
	case cowErr == nil && (&cow.Data[0] == &shared[0]) != (wantFixed == 0):
		t.Fatalf("%s: %d corrections, DecodePage view of its input: %v", what, wantFixed, &cow.Data[0] == &shared[0])
	}
	got, err := c.DecodePageInPlace(raw)
	switch {
	case (err == nil) != (wantErr == nil), err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: err %v, word loop %v", what, err, wantErr)
	case got.Corrected != wantFixed:
		t.Fatalf("%s: corrected %d, word loop %d", what, got.Corrected, wantFixed)
	case !bytes.Equal(raw, ref):
		t.Fatalf("%s: buffer differs from the word loop's", what)
	case err == nil && (len(got.Data) != c.PageSize() || &got.Data[0] != &raw[0]):
		t.Fatalf("%s: Data is not raw's page", what)
	}
	return got, err
}

// The page kernels work on eight words at a time; the word loop is the
// specification. Page sizes cover no full group (8), exactly one (64),
// a group and a one-word tail (72), and 8 groups and a tail (520), as
// well as the flash page.
func TestPageKernelsMatchWordLoop(t *testing.T) {
	for _, pageSize := range []int{8, 64, 72, 520, 8192} {
		c, err := NewPageCodec(pageSize)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(pageSize)))
		clean := make([]byte, c.StoredSize())
		rng.Read(clean) // the OOB tail starts out as junk
		want := append([]byte(nil), clean...)
		refEncodeInPlace(want, pageSize)
		if err := c.EncodeInPlace(clean); err != nil || !bytes.Equal(clean, want) {
			t.Fatalf("page %d: EncodeInPlace differs from encodeReference per word (err %v)", pageSize, err)
		}
		damaged := func(flips ...int) []byte {
			raw := append([]byte(nil), clean...)
			for _, bit := range flips {
				FlipBit(raw, bit)
			}
			return raw
		}
		// codewordBit maps bit 0..71 of word w's codeword to its bit in
		// the stored image: 64 data bits, then the 8 bits of its OOB byte.
		codewordBit := func(w, bit int) int {
			if bit < 64 {
				return 64*w + bit
			}
			return 8*pageSize + 8*w + bit - 64
		}
		if res, _ := decodeBothWays(t, c, damaged(), "clean"); res.Corrected != 0 {
			t.Fatalf("page %d: clean page corrected %d", pageSize, res.Corrected)
		}

		words := pageSize / 8
		// First and last word of the first group, of the last full
		// group, and of the tail.
		probe := map[int]bool{0: true, words - 1: true}
		for _, w := range []int{7, words&^7 - 8, words&^7 - 1, words &^ 7} {
			if w >= 0 && w < words {
				probe[w] = true
			}
		}
		for w := range probe {
			for bit := 0; bit < 72; bit++ {
				raw := damaged(codewordBit(w, bit))
				res, err := decodeBothWays(t, c, raw, "one flip")
				if err != nil || res.Corrected != 1 || !bytes.Equal(res.Data, clean[:pageSize]) {
					t.Fatalf("page %d word %d bit %d: corrected %d, err %v", pageSize, w, bit, res.Corrected, err)
				}
			}

			// Two flips in word w are uncorrectable at byte 8w; a flip
			// in the word before is repaired by then, one in the word
			// after is never reached.
			flips := []int{codewordBit(w, 3), codewordBit(w, 68)}
			if w > 0 {
				flips = append(flips, codewordBit(w-1, 9))
			}
			if w+1 < words {
				flips = append(flips, codewordBit(w+1, 9))
			}
			raw := damaged(flips...)
			_, err := decodeBothWays(t, c, raw, "two flips in a word")
			if !errors.Is(err, ErrUncorrectable) || err.Error() != fmt.Sprintf("word at byte %d: %v", 8*w, ErrUncorrectable) {
				t.Fatalf("page %d word %d: err %v", pageSize, w, err)
			}
			if w > 0 && !bytes.Equal(raw[8*(w-1):8*w], clean[8*(w-1):8*w]) {
				t.Fatalf("page %d word %d: the word before the failure was not repaired", pageSize, w)
			}
			if w+1 < words && bytes.Equal(raw[8*(w+1):8*(w+2)], clean[8*(w+1):8*(w+2)]) {
				t.Fatalf("page %d word %d: the word after the failure was touched", pageSize, w)
			}

			// One flip in each of two words of the same group.
			if other := w ^ 5; other < words {
				raw := damaged(codewordBit(w, 17), codewordBit(other, 70))
				res, err := decodeBothWays(t, c, raw, "two words of a group")
				if err != nil || res.Corrected != 2 || !bytes.Equal(res.Data, clean[:pageSize]) {
					t.Fatalf("page %d words %d,%d: corrected %d, err %v", pageSize, w, other, res.Corrected, err)
				}
			}
		}
	}
}
