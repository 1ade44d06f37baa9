// Package ecc implements the bit-error correction performed by the
// BlueDBM flash controller (the ECC encoder/decoder pair of paper
// Table 1). It provides a SEC-DED extended Hamming(72,64) code over
// 64-bit words and a page-level codec that protects whole flash pages,
// so the rest of the system sees "logical error-free access into
// flash" (paper §5.1).
package ecc

import (
	"errors"
	"math/bits"
)

// ErrUncorrectable reports a detected double-bit error (or worse) that
// SEC-DED cannot repair.
var ErrUncorrectable = errors.New("ecc: uncorrectable error")

// Code word layout: 72 bits = 64 data bits + 7 Hamming check bits + 1
// overall parity bit. Internally, bits occupy Hamming positions 1..71
// with check bits at the power-of-two positions (1,2,4,8,16,32,64) and
// data bits filling the rest; position 0 holds the overall parity.

// dataPos[i] is the Hamming position (1..71) of data bit i.
var dataPos = buildDataPositions()

// posData[p] is the data-bit index stored at Hamming position p, or -1
// for check-bit positions.
var posData = buildPosData()

func buildDataPositions() [64]int {
	var out [64]int
	i := 0
	for p := 1; p <= 71 && i < 64; p++ {
		if p&(p-1) == 0 { // power of two: check bit
			continue
		}
		out[i] = p
		i++
	}
	if i != 64 {
		panic("ecc: internal: wrong number of data positions")
	}
	return out
}

func buildPosData() [72]int {
	var out [72]int
	for p := range out {
		out[p] = -1
	}
	for i, p := range dataPos {
		out[p] = i
	}
	return out
}

// The encoder reads a data word as six 11-bit chunks (the last holds
// the nine bits that are left).
const (
	chunkBits = 11
	chunks    = (64 + chunkBits - 1) / chunkBits
	chunkMask = 1<<chunkBits - 1
)

// encTab[j][b] is the contribution of chunk j of the data word holding
// value b to the word's check byte: the XOR of dataPos for its set bits
// in bits 0..6 (syndrome positions are < 128) and, in bit 7, the
// chunk's contribution to the overall parity bit. That bit covers the
// data bits and the seven check bits, and the check bits are exactly
// the syndrome bits, so an entry folds in the parity of its own
// syndrome: bit 7 = parity(b) ^ parity(syndrome). Both halves are
// linear over XOR, which makes a word's whole check byte the plain XOR
// of its six entries — nothing is left to compute after the lookups.
//
// The encoder runs over every word of a flash page on every program
// AND every read (decoding recomputes it), eight words per step in
// encode8, so this table is the single hottest path in the simulator.
// Its geometry was chosen by the bench ladder's flashserver.read rung
// and the local-read workload, not by a microbenchmark that has the
// cache to itself: six lookups per word from 12 KB beat eight from
// 2 KB on both.
var encTab = buildEncTab()

func buildEncTab() [chunks][1 << chunkBits]byte {
	var tab [chunks][1 << chunkBits]byte
	for j := range tab {
		for b := range tab[j] {
			syndrome := 0
			for k := 0; k < chunkBits && chunkBits*j+k < 64; k++ {
				if b>>uint(k)&1 == 1 {
					syndrome ^= dataPos[chunkBits*j+k]
				}
			}
			parity := (bits.OnesCount(uint(b)) ^ bits.OnesCount(uint(syndrome))) & 1
			tab[j][b] = byte(syndrome) | byte(parity)<<7
		}
	}
	return tab
}

// Encode computes the 8 check bits for a 64-bit data word. The returned
// byte has the 7 Hamming syndrome bits in bits 0..6 and the overall
// parity in bit 7.
func Encode(data uint64) byte {
	return encTab[0][data&chunkMask] ^
		encTab[1][data>>(1*chunkBits)&chunkMask] ^
		encTab[2][data>>(2*chunkBits)&chunkMask] ^
		encTab[3][data>>(3*chunkBits)&chunkMask] ^
		encTab[4][data>>(4*chunkBits)&chunkMask] ^
		encTab[5][data>>(5*chunkBits)]
}

// Decode checks a received (data, check) pair, correcting a single
// flipped bit anywhere in the 72-bit code word (data, check, or parity
// bit). It returns the corrected data and the number of corrected bits
// (0 or 1). A double-bit error returns ErrUncorrectable.
func Decode(data uint64, check byte) (corrected uint64, fixed int, err error) {
	// d is the recomputed check byte XOR the received one. Its low
	// seven bits are the syndrome. Its eight bits together have the
	// parity of the received 72-bit codeword: Encode's bit 7 is the
	// parity of the data and of its own low seven bits, so the byte
	// Encode returns has the data's parity, and XORing in check adds
	// the received check bits'. A valid codeword has even total parity;
	// odd parity pinpoints a single-bit error.
	d := Encode(data) ^ check
	syndrome := int(d & 0x7f)
	totalParity := bits.OnesCount8(d) & 1

	switch {
	case syndrome == 0 && totalParity == 0:
		return data, 0, nil
	case totalParity == 1:
		if syndrome == 0 {
			// The overall parity bit itself flipped; data is intact.
			return data, 1, nil
		}
		// Single-bit error at a Hamming position past the codeword
		// (syndrome 72..127): only a multi-bit error produces it, so
		// report it uncorrectable. Static sentinel — this runs on the
		// per-word read path and must not allocate.
		if syndrome > 71 {
			return data, 0, ErrUncorrectable
		}
		if di := posData[syndrome]; di >= 0 {
			return data ^ 1<<uint(di), 1, nil
		}
		// A check bit flipped; data is intact.
		return data, 1, nil
	default:
		// Non-zero syndrome with even overall parity: double-bit error.
		return data, 0, ErrUncorrectable
	}
}
