package huffman

import (
	"fmt"
	"math/bits"
)

// Code is one canonical Huffman code: the code bits (already bit-reversed
// for LSB-first emission into a DEFLATE stream) and its length in bits.
type Code struct {
	Bits uint16 // reversed code value, ready for bitio.Writer.WriteBits
	Len  uint8  // 0 means the symbol has no code
}

// Encoder maps symbols to canonical codes.
type Encoder struct {
	Codes   []Code
	Lengths []uint8
}

// NewEncoder assigns canonical codes to the given code lengths, following
// the DEFLATE convention: shorter codes first, ties broken by symbol order,
// codes counted upward within each length.
func NewEncoder(lengths []uint8) (*Encoder, error) {
	codes := make([]Code, len(lengths))
	if err := AssignCodes(codes, lengths); err != nil {
		return nil, err
	}
	return &Encoder{Codes: codes, Lengths: lengths}, nil
}

// AssignCodes is NewEncoder into the caller's codes[:len(lengths)], with
// no allocation.
func AssignCodes(codes []Code, lengths []uint8) error {
	codes = codes[:len(lengths)]
	clear(codes)
	maxLen := uint8(0)
	for _, l := range lengths {
		maxLen = max(maxLen, l)
	}
	if maxLen == 0 {
		return nil
	}
	if maxLen > 31 {
		return fmt.Errorf("huffman: code length %d too large", maxLen)
	}
	var counts [32]uint32
	for _, l := range lengths {
		counts[l]++
	}
	counts[0] = 0
	// first code of each length
	var next [33]uint32
	code := uint32(0)
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + counts[l-1]) << 1
		next[l] = code
	}
	// over-subscription check
	if k := KraftSum(lengths, int(maxLen)); k > 1<<maxLen {
		return fmt.Errorf("huffman: over-subscribed code (kraft %d > %d)", k, 1<<maxLen)
	}
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		codes[sym] = Code{Bits: bits.Reverse16(uint16(next[l])) >> (16 - l), Len: l}
		next[l]++
	}
	return nil
}

// TotalBits returns the encoded size in bits of a message with the given
// per-symbol frequencies under this code (without any header cost).
func (e *Encoder) TotalBits(freqs []int64) int64 {
	var total int64
	for sym, f := range freqs {
		if f == 0 {
			continue
		}
		total += f * int64(e.Codes[sym].Len)
	}
	return total
}
