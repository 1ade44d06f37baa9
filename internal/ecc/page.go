package ecc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrRawSize reports a raw image that is not StoredSize bytes long.
var ErrRawSize = errors.New("ecc: raw image is not StoredSize bytes")

// PageCodec protects a whole flash page by splitting it into 64-bit
// words, each carrying one SEC-DED check byte stored in the page's
// out-of-band (OOB) area — the layout real NAND controllers use.
type PageCodec struct {
	pageSize int // data bytes, must be a multiple of 8
}

// NewPageCodec returns a codec for pages of pageSize data bytes.
func NewPageCodec(pageSize int) (*PageCodec, error) {
	if pageSize <= 0 || pageSize%8 != 0 {
		return nil, fmt.Errorf("ecc: page size %d not a positive multiple of 8", pageSize)
	}
	return &PageCodec{pageSize: pageSize}, nil
}

// OOBSize returns the number of check bytes per page (one per 8 data
// bytes).
func (c *PageCodec) OOBSize() int { return c.pageSize / 8 }

// StoredSize returns the raw bytes written to flash per page.
func (c *PageCodec) StoredSize() int { return c.pageSize + c.OOBSize() }

// EncodePage appends check bytes to data and returns the raw stored
// image (data || oob) in a fresh buffer; data is left untouched. data
// must be exactly PageSize bytes. It is EncodeInPlace for callers that
// do not already hold a StoredSize buffer.
func (c *PageCodec) EncodePage(data []byte) ([]byte, error) {
	if len(data) != c.pageSize {
		return nil, fmt.Errorf("ecc: encode: page is %d bytes, want %d", len(data), c.pageSize)
	}
	raw := make([]byte, c.StoredSize())
	copy(raw, data)
	return raw, c.EncodeInPlace(raw)
}

// EncodeInPlace completes a raw stored image whose first PageSize
// bytes already hold the page: it writes the check bytes into the OOB
// tail of raw and touches nothing else. raw must be exactly StoredSize
// bytes (ErrRawSize otherwise). It is the write-side mirror of
// DecodePageInPlace: the buffer a page was snapshotted into becomes
// the image flash stores, with no second copy. The check bytes are a
// pure function of the page, so the flash controller computes them only
// where a decode reads them: the card fills them into the private copy
// a read of a page image makes when it draws flips (nand.Card.ReadPage).
//
//simlint:hotpath
func (c *PageCodec) EncodeInPlace(raw []byte) error {
	if len(raw) != c.StoredSize() {
		return ErrRawSize
	}
	data, oob := raw[:c.pageSize], raw[c.pageSize:]
	full := len(oob) &^ 7
	for g := 0; g < full; g += 8 {
		binary.LittleEndian.PutUint64(oob[g:], encode8(data[8*g:]))
	}
	for w := full; w < len(oob); w++ {
		oob[w] = Encode(binary.LittleEndian.Uint64(data[8*w:]))
	}
	return nil
}

// encode8 returns the check bytes of the eight words at the head of
// data (at least 64 bytes), packed the way the OOB area stores them:
// word k's check byte in byte k of the little-endian result. A clean
// 64-byte group therefore costs the read path one compare and the
// program path one store.
//
//simlint:hotpath
func encode8(data []byte) uint64 {
	_ = data[63]
	// Written out: the compiler does not unroll a loop over the eight
	// words, and the loop-carried shift count costs a third of the time.
	return uint64(Encode(binary.LittleEndian.Uint64(data[0:]))) |
		uint64(Encode(binary.LittleEndian.Uint64(data[8:])))<<8 |
		uint64(Encode(binary.LittleEndian.Uint64(data[16:])))<<16 |
		uint64(Encode(binary.LittleEndian.Uint64(data[24:])))<<24 |
		uint64(Encode(binary.LittleEndian.Uint64(data[32:])))<<32 |
		uint64(Encode(binary.LittleEndian.Uint64(data[40:])))<<40 |
		uint64(Encode(binary.LittleEndian.Uint64(data[48:])))<<48 |
		uint64(Encode(binary.LittleEndian.Uint64(data[56:])))<<56
}

// DecodeResult reports what page decoding found.
type DecodeResult struct {
	Data      []byte // corrected page data (PageSize bytes)
	Corrected int    // number of single-bit corrections applied
}

// DecodePage verifies a raw stored image without writing to it, which
// is what the flash read path needs: raw is as a rule the very image
// the card stores, shared with every other reader of the page, and
// images are immutable (nand.Geometry.PageImage). A page whose check
// bytes all agree — every read that drew no bit error of an image that
// was encoded when it was programmed — is returned as a view of raw.
// The flash controller knows that answer in advance for a clean read of
// a page it programmed, whose stored image is the page alone with no
// check bytes to decode (nand.Card.ReadPage), and skips the call for it.
// At the first word that needs a correction raw is copied once and the
// copy is decoded in place: corrections land in the copy, Data is a
// view of it, and raw still reads as it did, wrong bits included. An
// uncorrectable word before any correctable one costs no copy. Errors
// are DecodePageInPlace's.
//
//simlint:hotpath
func (c *PageCodec) DecodePage(raw []byte) (DecodeResult, error) { return c.decode(raw, false) }

// DecodePageInPlace verifies and corrects a raw stored image, writing
// corrections directly into raw's data region and returning it as a
// sub-slice. It is for a caller that owns raw — a buffer nobody else
// reads; the flash read path, whose buffers are shared, goes through
// DecodePage. raw must be exactly StoredSize bytes (ErrRawSize,
// wrapped, otherwise). It returns ErrUncorrectable (wrapped, with the
// word offset) at the first word with a double-bit error; words before
// it are already corrected in raw.
//
// Eight words are verified per step: their recomputed check bytes are
// compared with the eight stored ones as one uint64, and only a group
// that differs — or the tail of a page that is not a multiple of 64
// bytes — goes word by word through Decode, which alone corrects,
// counts and reports.
//
//simlint:hotpath
func (c *PageCodec) DecodePageInPlace(raw []byte) (DecodeResult, error) { return c.decode(raw, true) }

// decode is both decoders: own says whether raw may be written to.
//
//simlint:hotpath
func (c *PageCodec) decode(raw []byte, own bool) (DecodeResult, error) {
	if len(raw) != c.StoredSize() {
		//simlint:allow hotpath (size-mismatch error path, never taken steady-state)
		return DecodeResult{}, fmt.Errorf("ecc: decode: raw is %d bytes, want %d: %w", len(raw), c.StoredSize(), ErrRawSize)
	}
	data, oob := raw[:c.pageSize], raw[c.pageSize:]
	fixed := 0
	for g := 0; g < len(oob); g += 8 {
		end := min(g+8, len(oob))
		if end-g == 8 && encode8(data[8*g:]) == binary.LittleEndian.Uint64(oob[g:]) {
			continue
		}
		for w := g; w < end; w++ {
			word := binary.LittleEndian.Uint64(data[8*w:])
			cw, n, err := Decode(word, oob[w])
			if err != nil {
				//simlint:allow hotpath (uncorrectable-read error path, off the steady-state path)
				return DecodeResult{}, fmt.Errorf("word at byte %d: %w", 8*w, err)
			}
			if n > 0 && !own {
				// The first wrong bit, in the word or in its check byte:
				// everything before it verified, so nothing is lost by
				// starting over in a copy.
				//simlint:allow hotpath (the private copy of a read that has a bit to correct: at the default error rate one read in 13 000)
				return c.decode(append([]byte(nil), raw...), true)
			}
			if cw != word {
				binary.LittleEndian.PutUint64(data[8*w:], cw)
			}
			fixed += n
		}
	}
	return DecodeResult{Data: data, Corrected: fixed}, nil
}

// FlipBit flips bit (bitIndex mod 8) of byte bitIndex/8 in buf, in
// place. It is the error-injection helper used by nand and by tests.
func FlipBit(buf []byte, bitIndex int) {
	buf[bitIndex/8] ^= 1 << uint(bitIndex%8)
}
