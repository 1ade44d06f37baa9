package ecc_test

import (
	"bytes"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/ecc"
	"repro/internal/sim"
)

// TestDecodePageCopiesOnlyAFlippedPage pins the flash read path's
// decoder, which reads a shared image it may not write: a clean page is
// verified in place and returned as a view (no allocation), and a page
// with one flipped bit costs exactly one allocation, the private copy
// the correction lands in, leaving the shared image as it was.
func TestDecodePageCopiesOnlyAFlippedPage(t *testing.T) {
	codec, err := ecc.NewPageCodec(520) // eight groups and a one-word tail
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, codec.PageSize())
	sim.NewRNG(22).Bytes(page)
	raw, err := codec.EncodePage(page)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(wantCorrected int) func() {
		return func() {
			res, err := codec.DecodePage(raw)
			if err != nil || res.Corrected != wantCorrected || !bytes.Equal(res.Data, page) {
				t.Fatalf("decode: corrected %d (want %d), err %v, data intact %v",
					res.Corrected, wantCorrected, err, bytes.Equal(res.Data, page))
			}
		}
	}
	if n := alloctest.Mallocs(200, decode(0)); n != 0 {
		t.Errorf("200 decodes of a clean page make %d allocations, want 0", n)
	}
	ecc.FlipBit(raw, 77)
	flipped := append([]byte(nil), raw...)
	if n := alloctest.Mallocs(200, decode(1)); n != 200 {
		t.Errorf("200 decodes of a flipped page make %d allocations, want 200 (one private copy each)", n)
	}
	if !bytes.Equal(raw, flipped) {
		t.Fatal("decoding wrote to the shared image")
	}
}
