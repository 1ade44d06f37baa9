package ecc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// decodeCopy decodes a private copy of raw, for tests that flip bits in
// one stored image and decode it more than once.
func decodeCopy(c *PageCodec, raw []byte) (DecodeResult, error) {
	return c.DecodePageInPlace(append([]byte(nil), raw...))
}

func TestEncodeDecodeClean(t *testing.T) {
	for _, w := range []uint64{0, 1, 0xffffffffffffffff, 0xdeadbeefcafebabe, 1 << 63} {
		c := Encode(w)
		got, fixed, err := Decode(w, c)
		if err != nil || fixed != 0 || got != w {
			t.Fatalf("clean decode of %#x: got %#x fixed=%d err=%v", w, got, fixed, err)
		}
	}
}

func TestSingleBitDataErrorCorrected(t *testing.T) {
	w := uint64(0x0123456789abcdef)
	c := Encode(w)
	for bit := 0; bit < 64; bit++ {
		bad := w ^ 1<<uint(bit)
		got, fixed, err := Decode(bad, c)
		if err != nil {
			t.Fatalf("bit %d: unexpected error %v", bit, err)
		}
		if fixed != 1 || got != w {
			t.Fatalf("bit %d: got %#x fixed=%d, want original", bit, got, fixed)
		}
	}
}

func TestSingleBitCheckErrorCorrected(t *testing.T) {
	w := uint64(0xfeedface12345678)
	c := Encode(w)
	for bit := 0; bit < 8; bit++ {
		badCheck := c ^ 1<<uint(bit)
		got, fixed, err := Decode(w, badCheck)
		if err != nil {
			t.Fatalf("check bit %d: unexpected error %v", bit, err)
		}
		if fixed != 1 || got != w {
			t.Fatalf("check bit %d: data corrupted: %#x fixed=%d", bit, got, fixed)
		}
	}
}

func TestDoubleBitErrorDetected(t *testing.T) {
	w := uint64(0xaaaa5555aaaa5555)
	c := Encode(w)
	// Two data-bit flips.
	for _, pair := range [][2]int{{0, 1}, {5, 40}, {62, 63}, {0, 63}} {
		bad := w ^ 1<<uint(pair[0]) ^ 1<<uint(pair[1])
		_, _, err := Decode(bad, c)
		if !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("double flip %v: err = %v, want ErrUncorrectable", pair, err)
		}
	}
	// One data + one check-bit flip.
	_, _, err := Decode(w^1<<10, c^1<<2)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("data+check flip: err = %v, want ErrUncorrectable", err)
	}
}

// Property: every (word, single-bit-position) pair round-trips.
func TestSingleBitProperty(t *testing.T) {
	prop := func(w uint64, pos uint8) bool {
		c := Encode(w)
		bit := int(pos) % 72
		// Flip one bit of the 72-bit codeword: data bits 0..63,
		// check bits 64..70, parity bit 71.
		bad, badCheck := w, c
		switch {
		case bit < 64:
			bad ^= 1 << uint(bit)
		case bit < 71:
			badCheck ^= 1 << uint(bit-64)
		default:
			badCheck ^= 1 << 7
		}
		got, fixed, err := Decode(bad, badCheck)
		return err == nil && fixed == 1 && got == w
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: any double data-bit flip is detected, never miscorrected.
func TestDoubleBitProperty(t *testing.T) {
	prop := func(w uint64, a, b uint8) bool {
		p1, p2 := int(a)%64, int(b)%64
		if p1 == p2 {
			return true
		}
		c := Encode(w)
		bad := w ^ 1<<uint(p1) ^ 1<<uint(p2)
		_, _, err := Decode(bad, c)
		return errors.Is(err, ErrUncorrectable)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPageCodecRoundTrip(t *testing.T) {
	c, err := NewPageCodec(8192)
	if err != nil {
		t.Fatal(err)
	}
	if c.OOBSize() != 1024 || c.StoredSize() != 9216 {
		t.Fatalf("sizes: oob=%d stored=%d", c.OOBSize(), c.StoredSize())
	}
	data := make([]byte, 8192)
	sim.NewRNG(11).Bytes(data)
	raw, err := c.EncodePage(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeCopy(c, raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrected != 0 || !bytes.Equal(res.Data, data) {
		t.Fatalf("clean round trip corrupted data (fixed=%d)", res.Corrected)
	}
}

func TestPageCodecScatteredErrors(t *testing.T) {
	c, _ := NewPageCodec(512)
	data := make([]byte, 512)
	sim.NewRNG(12).Bytes(data)
	raw, _ := c.EncodePage(data)

	// One flipped bit in each of several distinct words: all corrected.
	for _, word := range []int{0, 7, 33, 63} {
		FlipBit(raw, word*64+word%64)
	}
	res, err := decodeCopy(c, raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrected != 4 {
		t.Fatalf("corrected = %d, want 4", res.Corrected)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("data not restored")
	}
}

func TestPageCodecDoubleErrorInWord(t *testing.T) {
	c, _ := NewPageCodec(512)
	data := make([]byte, 512)
	raw, _ := c.EncodePage(data)
	FlipBit(raw, 100)
	FlipBit(raw, 101) // same 64-bit word
	_, err := decodeCopy(c, raw)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrUncorrectable", err)
	}
}

func TestPageCodecOOBErrors(t *testing.T) {
	// A single-bit flip in the OOB area must not corrupt data.
	c, _ := NewPageCodec(512)
	data := make([]byte, 512)
	sim.NewRNG(13).Bytes(data)
	raw, _ := c.EncodePage(data)
	FlipBit(raw[512:], 9) // flip a check bit of word 1
	res, err := decodeCopy(c, raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrected != 1 || !bytes.Equal(res.Data, data) {
		t.Fatalf("OOB flip: fixed=%d, data equal=%v", res.Corrected, bytes.Equal(res.Data, data))
	}
}

func TestPageCodecSizeValidation(t *testing.T) {
	if _, err := NewPageCodec(0); err == nil {
		t.Fatal("page size 0 accepted")
	}
	if _, err := NewPageCodec(13); err == nil {
		t.Fatal("non-multiple-of-8 page size accepted")
	}
	c, _ := NewPageCodec(64)
	if _, err := c.EncodePage(make([]byte, 63)); err == nil {
		t.Fatal("wrong-length encode accepted")
	}
	if _, err := decodeCopy(c, make([]byte, 10)); !errors.Is(err, ErrRawSize) {
		t.Fatalf("wrong-length decode: %v, want ErrRawSize", err)
	}
}

// Property: random single-bit storms with at most one flip per word are
// always fully repaired.
func TestPageCodecStormProperty(t *testing.T) {
	codec, _ := NewPageCodec(256) // 32 words
	prop := func(seed uint64, wordMask uint32) bool {
		rng := sim.NewRNG(seed)
		data := make([]byte, 256)
		rng.Bytes(data)
		raw, err := codec.EncodePage(data)
		if err != nil {
			return false
		}
		flips := 0
		for w := 0; w < 32; w++ {
			if wordMask>>uint(w)&1 == 1 {
				FlipBit(raw, w*64+rng.Intn(64))
				flips++
			}
		}
		res, err := decodeCopy(codec, raw)
		return err == nil && res.Corrected == flips && bytes.Equal(res.Data, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sink keeps a benchmarked call's result live; without it the compiler
// removes a call to a pure, inlinable function like Encode.
var sink uint64

func BenchmarkEncodeWord(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
	sink += uint64(acc)
}

// benchImage returns the 8 KiB codec and one encoded random page.
func benchImage(b *testing.B) (*PageCodec, []byte) {
	c, err := NewPageCodec(8192)
	if err != nil {
		b.Fatal(err)
	}
	raw := make([]byte, c.StoredSize())
	sim.NewRNG(1).Bytes(raw[:c.PageSize()])
	if err := c.EncodeInPlace(raw); err != nil {
		b.Fatal(err)
	}
	return c, raw
}

func BenchmarkEncodeInPlace8K(b *testing.B) {
	c, raw := benchImage(b)
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EncodeInPlace(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePageInPlace8K times the read path's kernel: on a clean
// page (every group passes on one compare), and on a page with one
// flipped data bit, which the decode repairs in raw, so every iteration
// flips one again — what the bench ladder's ecc.decode_page rung
// measures. (A flipped check bit is counted but left in the OOB.)
func BenchmarkDecodePageInPlace8K(b *testing.B) {
	for _, flips := range []int{0, 1} {
		name := "clean"
		if flips == 1 {
			name = "one-flip"
		}
		b.Run(name, func(b *testing.B) {
			c, raw := benchImage(b)
			rng := sim.NewRNG(2)
			b.SetBytes(8192)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if flips == 1 {
					FlipBit(raw, rng.Intn(c.PageSize()*8))
				}
				res, err := c.DecodePageInPlace(raw)
				if err != nil || res.Corrected != flips {
					b.Fatalf("corrected %d, err %v", res.Corrected, err)
				}
			}
		})
	}
}

// BenchmarkDecodePage8K times the copying wrapper (one StoredSize
// allocation per call); the hot path is DecodePageInPlace.
func BenchmarkDecodePage8K(b *testing.B) {
	c, raw := benchImage(b)
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeCopy(c, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: EncodeInPlace writes, into the tail of a buffer that
// already holds the page, exactly the image EncodePage builds in a
// fresh one — and the two images stay byte-identical through a bit
// flip and its in-place repair.
func TestEncodeInPlaceMatchesEncodePage(t *testing.T) {
	c, err := NewPageCodec(512)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64, flip uint32) bool {
		data := make([]byte, c.PageSize())
		sim.NewRNG(uint64(seed)).Bytes(data)
		want, err := c.EncodePage(data)
		if err != nil {
			return false
		}
		got := make([]byte, c.StoredSize())
		copy(got, data)
		for i := c.PageSize(); i < len(got); i++ {
			got[i] = 0xa5 // stale bytes in the OOB tail must be overwritten
		}
		if err := c.EncodeInPlace(got); err != nil || !bytes.Equal(got, want) {
			return false
		}
		if !bytes.Equal(got[:c.PageSize()], data) {
			return false // the page itself must not be touched
		}
		bit := int(flip) % (c.StoredSize() * 8)
		FlipBit(got, bit)
		FlipBit(want, bit)
		rg, errG := c.DecodePageInPlace(got)
		rw, errW := c.DecodePageInPlace(want)
		return errG == nil && errW == nil && rg.Corrected == 1 && rw.Corrected == 1 &&
			bytes.Equal(rg.Data, data) && bytes.Equal(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if err := c.EncodeInPlace(make([]byte, c.PageSize())); !errors.Is(err, ErrRawSize) {
		t.Fatalf("page-sized buffer: %v, want ErrRawSize", err)
	}
}
