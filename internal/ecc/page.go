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

// PageSize returns the protected data size in bytes.
func (c *PageCodec) PageSize() int { return c.pageSize }

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
// the image flash stores, with no second copy.
//
//simlint:hotpath
func (c *PageCodec) EncodeInPlace(raw []byte) error {
	if len(raw) != c.StoredSize() {
		return ErrRawSize
	}
	oob := raw[c.pageSize:]
	for i := 0; i < c.pageSize; i += 8 {
		oob[i/8] = Encode(binary.LittleEndian.Uint64(raw[i:]))
	}
	return nil
}

// DecodeResult reports what page decoding found.
type DecodeResult struct {
	Data      []byte // corrected page data (PageSize bytes)
	Corrected int    // number of single-bit corrections applied
}

// DecodePage verifies and corrects a raw stored image. It returns
// ErrUncorrectable (wrapped, with the word offset) if any word has a
// double-bit error.
func (c *PageCodec) DecodePage(raw []byte) (DecodeResult, error) {
	if len(raw) != c.StoredSize() {
		return DecodeResult{}, fmt.Errorf("ecc: decode: raw is %d bytes, want %d", len(raw), c.StoredSize())
	}
	data := make([]byte, c.pageSize)
	copy(data, raw[:c.pageSize])
	oob := raw[c.pageSize:]
	fixed := 0
	for i := 0; i < c.pageSize; i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		cw, n, err := Decode(w, oob[i/8])
		if err != nil {
			return DecodeResult{}, fmt.Errorf("word at byte %d: %w", i, err)
		}
		if n > 0 && cw != w {
			binary.LittleEndian.PutUint64(data[i:], cw)
		}
		fixed += n
	}
	return DecodeResult{Data: data, Corrected: fixed}, nil
}

// DecodePageInPlace verifies and corrects a raw stored image, writing
// corrections directly into raw's data region and returning it as a
// sub-slice. The caller must own raw (the flash read path hands each
// caller a private copy). Semantics otherwise match DecodePage.
//
//simlint:hotpath
func (c *PageCodec) DecodePageInPlace(raw []byte) (DecodeResult, error) {
	if len(raw) != c.StoredSize() {
		//simlint:allow hotpath (size-mismatch error path, never taken steady-state)
		return DecodeResult{}, fmt.Errorf("ecc: decode: raw is %d bytes, want %d", len(raw), c.StoredSize())
	}
	data := raw[:c.pageSize]
	oob := raw[c.pageSize:]
	fixed := 0
	for i := 0; i < c.pageSize; i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		cw, n, err := Decode(w, oob[i/8])
		if err != nil {
			//simlint:allow hotpath (uncorrectable-read error path, off the steady-state path)
			return DecodeResult{}, fmt.Errorf("word at byte %d: %w", i, err)
		}
		if n > 0 && cw != w {
			binary.LittleEndian.PutUint64(data[i:], cw)
		}
		fixed += n
	}
	return DecodeResult{Data: data, Corrected: fixed}, nil
}

// FlipBit flips bit (bitIndex mod 8) of byte bitIndex/8 in buf, in
// place. It is the error-injection helper used by nand and by tests.
func FlipBit(buf []byte, bitIndex int) {
	buf[bitIndex/8] ^= 1 << uint(bitIndex%8)
}
