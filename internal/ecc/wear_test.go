package ecc

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/sim"
)

// TestWearSweptBER sweeps the raw bit-error rate across the range a
// wearing flash block traverses (fresh media through end-of-life) and
// checks, for every page, that the page codec and the word-level
// reference agree exactly: same clean/corrected/uncorrectable verdict,
// same correction count, and byte-identical repaired data.
func TestWearSweptBER(t *testing.T) {
	const pageSize = 512 // 64 words: small enough to sweep densely
	codec, err := NewPageCodec(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(0xecc)
	var clean, correctedPages, uncorrectable int
	// BER per stored bit, from ~fresh media to well past end-of-life.
	for _, ber := range []float64{1e-5, 1e-4, 5e-4, 1e-3, 3e-3, 1e-2} {
		for page := 0; page < 200; page++ {
			data := make([]byte, pageSize)
			rng.Bytes(data)
			raw, err := codec.EncodePage(data)
			if err != nil {
				t.Fatal(err)
			}
			// Inject flips across the whole stored image (data + OOB),
			// like real media: each bit flips with probability ber.
			// Track per-codeword flip counts: SEC-DED only promises to
			// restore words with a single flip; a >=3-bit word error may
			// legally miscorrect (and must still match the reference).
			bits := len(raw) * 8
			flips := 0
			var perWord [pageSize / 8]int
			for b := 0; b < bits; b++ {
				if rng.Float64() < ber {
					FlipBit(raw, b)
					flips++
					if b < pageSize*8 {
						perWord[b/64]++
					} else {
						perWord[(b-pageSize*8)/8]++
					}
				}
			}
			maxPerWord := 0
			for _, n := range perWord {
				if n > maxPerWord {
					maxPerWord = n
				}
			}
			refRaw := make([]byte, len(raw))
			copy(refRaw, raw)

			got, gotErr := codec.DecodePageInPlace(raw)
			refFixed, refErr := refDecodeInPlace(refRaw, pageSize)
			refData := refRaw[:pageSize]

			switch {
			case refErr != nil:
				if !errors.Is(gotErr, ErrUncorrectable) {
					t.Fatalf("ber=%g page=%d (%d flips): codec err %v, reference uncorrectable", ber, page, flips, gotErr)
				}
				uncorrectable++
			case gotErr != nil:
				t.Fatalf("ber=%g page=%d (%d flips): codec err %v, reference clean", ber, page, flips, gotErr)
			default:
				if got.Corrected != refFixed {
					t.Fatalf("ber=%g page=%d: corrected %d, reference %d", ber, page, got.Corrected, refFixed)
				}
				if !bytes.Equal(got.Data, refData) {
					t.Fatalf("ber=%g page=%d: repaired data differs from word-level reference", ber, page)
				}
				// Single-bit-per-word storms must restore the original.
				if maxPerWord <= 1 && !bytes.Equal(got.Data, data) {
					t.Fatalf("ber=%g page=%d: repaired data differs from original (fixed=%d)", ber, page, got.Corrected)
				}
				if got.Corrected == 0 {
					clean++
				} else {
					correctedPages++
				}
			}
		}
	}
	// The sweep must actually exercise all three outcomes.
	if clean == 0 || correctedPages == 0 || uncorrectable == 0 {
		t.Fatalf("sweep did not cover all outcomes: clean=%d corrected=%d uncorrectable=%d",
			clean, correctedPages, uncorrectable)
	}
}

// TestDecodeAllocFree pins the word decoder at zero allocations on
// clean, corrected, and uncorrectable outcomes — it runs 64x per page
// on every flash read.
func TestDecodeAllocFree(t *testing.T) {
	w := uint64(0x0123456789abcdef)
	c := Encode(w)
	cases := map[string]struct {
		data  uint64
		check byte
	}{
		"clean":         {w, c},
		"corrected":     {w ^ 1<<17, c},
		"uncorrectable": {w ^ 3, c},
	}
	for name, tc := range cases {
		n := alloctest.Mallocs(200, func() {
			Decode(tc.data, tc.check)
		})
		if n != 0 {
			t.Errorf("200 %s decodes allocate %d objects, want 0", name, n)
		}
	}
}

// TestPageKernelsAllocFree pins the page encoder, and the page decoder
// for clean and single-bit-corrected pages, at zero allocations (the
// steady-state program and read paths; uncorrectable pages may
// allocate for the wrapped error).
func TestPageKernelsAllocFree(t *testing.T) {
	codec, _ := NewPageCodec(520) // eight groups and a one-word tail
	clean := make([]byte, codec.StoredSize())
	sim.NewRNG(21).Bytes(clean[:codec.PageSize()])
	n := alloctest.Mallocs(200, func() {
		if err := codec.EncodeInPlace(clean); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("200 page encodes allocate %d objects, want 0", n)
	}
	n = alloctest.Mallocs(200, func() {
		if _, err := codec.DecodePageInPlace(clean); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("200 clean page decodes allocate %d objects, want 0", n)
	}
	// Corrected: flip a bit fresh each run (the decoder repairs raw in
	// place, so the flip must be reinjected).
	n = alloctest.Mallocs(200, func() {
		FlipBit(clean, 77)
		res, err := codec.DecodePageInPlace(clean)
		if err != nil {
			t.Fatal(err)
		}
		if res.Corrected != 1 {
			t.Fatalf("corrected = %d, want 1", res.Corrected)
		}
	})
	if n != 0 {
		t.Errorf("200 corrected page decodes allocate %d objects, want 0", n)
	}
}
