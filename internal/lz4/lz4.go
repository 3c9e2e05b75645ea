// Package lz4 implements the LZ4 block format in pure Go: a
// byte-aligned LZ77 variant with 4-bit token fields, 255-continuation
// length extension and 16-bit match offsets. It is the repo's second
// software block engine next to internal/x842 and deliberately mirrors
// that package's API — Compress returns a self-contained block,
// Decompress bounds its output and fails with ErrTooLarge when a block
// would decode past the bound and an error wrapping ErrCorrupt otherwise —
// so the nx engine drives both through one per-codec dispatch table.
//
// The format follows the LZ4 block specification: each sequence is a
// token byte (high nibble literal length, low nibble match length - 4),
// optional length-extension bytes, the literals, a 2-byte little-endian
// offset, and optional match-length extension. A block ends on a
// literals-only sequence; encoders keep the last five bytes literal and
// never start a match within twelve bytes of the end.
package lz4

import (
	"errors"
	"fmt"
)

// ErrCorrupt reports an undecodable block. Every Decompress error wraps
// it or ErrTooLarge.
var ErrCorrupt = errors.New("lz4: corrupt block")

// ErrTooLarge reports a block that would decode past the output budget:
// the block may be sound, the budget is not enough for it.
var ErrTooLarge = errors.New("lz4: output exceeds the budget")

// DefaultMaxOutput bounds decompression when the caller does not: a
// decompression bomb stops here instead of exhausting memory.
const DefaultMaxOutput = 256 << 20

const (
	minMatch = 4
	// mfLimit: a match may not start within the last 12 bytes of input;
	// the final lastLiterals bytes are always emitted as literals.
	mfLimit      = 12
	lastLiterals = 5
	hashLog      = 16
	hashShift    = 32 - hashLog
	maxOffset    = 65535
	// maxSeqLen bounds a single decoded length field so a hostile
	// 255-run cannot overflow the accumulator.
	maxSeqLen = 1 << 30
)

// CompressBound returns the worst-case compressed size for n input
// bytes (incompressible data pays one token per 255-byte literal run).
func CompressBound(n int) int { return n + n/255 + 16 }

func load32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

func hash4(u uint32) uint32 { return (u * 2654435761) >> hashShift }

// Compress encodes src as one LZ4 block using a single-probe hash-table
// match finder (the greedy fast path of the reference encoder). The
// result is always decodable by Decompress; empty input produces the
// one-byte empty block.
func Compress(src []byte) []byte {
	dst := make([]byte, 0, CompressBound(len(src)))
	n := len(src)
	if n == 0 {
		// A single zero token: no literals, no match — the empty block.
		return append(dst, 0)
	}
	if n < mfLimit+1 {
		return appendLiterals(dst, src)
	}

	// Positions are stored +1 so the zero value means "empty slot".
	var table [1 << hashLog]int32
	anchor := 0
	si := 0
	limit := n - mfLimit
	for si < limit {
		h := hash4(load32(src, si))
		cand := int(table[h]) - 1
		table[h] = int32(si + 1)
		if cand < 0 || si-cand > maxOffset || load32(src, cand) != load32(src, si) {
			si++
			continue
		}
		// Extend the verified 4-byte seed forward, stopping short of the
		// mandatory literal tail.
		maxEnd := n - lastLiterals
		mlen := minMatch
		for si+mlen < maxEnd && src[cand+mlen] == src[si+mlen] {
			mlen++
		}
		dst = appendSequence(dst, src[anchor:si], si-cand, mlen)
		si += mlen
		anchor = si
		if si < limit {
			// Re-prime the table just behind the cursor so back-to-back
			// matches chain without a literal gap.
			table[hash4(load32(src, si-2))] = int32(si - 1)
		}
	}
	return appendLiterals(dst, src[anchor:])
}

// appendLen emits a 255-continuation extension for v (the amount above
// the token nibble's 15).
func appendLen(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// appendLiterals emits a literals-only sequence — the block terminator.
func appendLiterals(dst, lits []byte) []byte {
	ll := len(lits)
	if ll >= 15 {
		dst = append(dst, 0xF0)
		dst = appendLen(dst, ll-15)
	} else {
		dst = append(dst, byte(ll)<<4)
	}
	return append(dst, lits...)
}

// appendSequence emits one token + literals + offset + match sequence.
func appendSequence(dst, lits []byte, offset, mlen int) []byte {
	ll := len(lits)
	ml := mlen - minMatch
	var token byte
	if ll >= 15 {
		token = 0xF0
	} else {
		token = byte(ll) << 4
	}
	if ml >= 15 {
		token |= 0x0F
	} else {
		token |= byte(ml)
	}
	dst = append(dst, token)
	if ll >= 15 {
		dst = appendLen(dst, ll-15)
	}
	dst = append(dst, lits...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = appendLen(dst, ml-15)
	}
	return dst
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// readLen accumulates a 255-continuation length extension starting at
// *si, returning base plus the extension.
func readLen(src []byte, si *int, base int) (int, error) {
	v := base
	for {
		if *si >= len(src) {
			return 0, corrupt("truncated length at %d", *si)
		}
		b := src[*si]
		*si++
		v += int(b)
		if v > maxSeqLen {
			return 0, corrupt("length overflow")
		}
		if b != 255 {
			return v, nil
		}
	}
}

// Decompress decodes one LZ4 block. Output is bounded by maxOutput
// (DefaultMaxOutput when <= 0); exceeding the bound fails with an error
// wrapping ErrTooLarge, running off the input or referencing data before
// the output start with one wrapping ErrCorrupt. The decoder is
// deliberately more permissive than the encoder-side end-condition rules:
// any sequence stream that stays in bounds decodes.
func Decompress(src []byte, maxOutput int) ([]byte, error) {
	if maxOutput <= 0 {
		maxOutput = DefaultMaxOutput
	}
	if len(src) == 0 {
		return nil, corrupt("empty block")
	}
	est := 3 * len(src)
	if est > maxOutput {
		est = maxOutput
	}
	if est > 1<<22 {
		est = 1 << 22
	}
	out := make([]byte, 0, est)
	si := 0
	for {
		if si >= len(src) {
			return nil, corrupt("truncated block at %d", si)
		}
		token := src[si]
		si++
		ll := int(token >> 4)
		if ll == 15 {
			var err error
			ll, err = readLen(src, &si, ll)
			if err != nil {
				return nil, err
			}
		}
		if ll > len(src)-si {
			return nil, corrupt("literal run of %d overruns input", ll)
		}
		if len(out)+ll > maxOutput {
			return nil, fmt.Errorf("%w of %d bytes", ErrTooLarge, maxOutput)
		}
		out = append(out, src[si:si+ll]...)
		si += ll
		if si == len(src) {
			// A block ends on a literals-only sequence.
			return out, nil
		}
		if len(src)-si < 2 {
			return nil, corrupt("truncated offset at %d", si)
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		if offset == 0 || offset > len(out) {
			return nil, corrupt("offset %d outside %d decoded bytes", offset, len(out))
		}
		ml := int(token & 0x0F)
		if ml == 15 {
			var err error
			ml, err = readLen(src, &si, ml)
			if err != nil {
				return nil, err
			}
		}
		ml += minMatch
		if len(out)+ml > maxOutput {
			return nil, fmt.Errorf("%w of %d bytes", ErrTooLarge, maxOutput)
		}
		// Byte-at-a-time copy: offsets smaller than the match length
		// replicate the overlap region, which is the format's RLE idiom.
		start := len(out) - offset
		for i := 0; i < ml; i++ {
			out = append(out, out[start+i])
		}
	}
}
