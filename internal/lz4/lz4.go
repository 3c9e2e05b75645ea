// Package lz4 implements the LZ4 block format in pure Go: a
// byte-aligned LZ77 variant with 4-bit token fields, 255-continuation
// length extension and 16-bit match offsets. It is the repo's second
// software block engine next to internal/x842 and deliberately mirrors
// that package's API — AppendCompress appends a self-contained block,
// DecompressInto bounds its output and fails with ErrTooLarge when a block
// would decode past the bound and an error wrapping ErrCorrupt otherwise;
// Compress and Decompress are the two without a caller's buffer — so the
// nx engine drives both through one per-codec dispatch table.
//
// The format follows the LZ4 block specification: each sequence is a
// token byte (high nibble literal length, low nibble match length - 4),
// optional length-extension bytes, the literals, a 2-byte little-endian
// offset, and optional match-length extension. A block ends on a
// literals-only sequence; encoders keep the last five bytes literal and
// never start a match within twelve bytes of the end.
package lz4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"nxzip/internal/freelist"
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

// MaxInput is the longest source AppendCompress takes: the match table
// numbers positions in 32 bits from a base that starts maxOffset+1 above
// zero (see matchTable.rebase).
const MaxInput = 1<<32 - 1 - (maxOffset + 1)

// CompressBound returns the worst-case compressed size for n input
// bytes (incompressible data pays one token per 255-byte literal run).
func CompressBound(n int) int { return n + n/255 + 16 }

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func hash4(u uint32) uint32 { return (u * 2654435761) >> hashShift }

// matchTable is the encoder's single-probe hash table: slot[h] holds
// base+position of the newest position whose first four bytes hashed to h.
// Each block's base lies maxOffset+1 past everything an earlier block
// stored, so an entry left by one reads as farther back than an offset
// reaches: "empty", "stale" and "out of reach" are one compare, and the
// table is not cleared between blocks.
type matchTable struct {
	slot [1 << hashLog]uint32
	end  uint32 // one past the largest entry any block stored
}

// tables lends an encoder its table for the length of one block.
var tables = freelist.New(func() *matchTable { return new(matchTable) })

// rebase returns the base of a block of n bytes. Only when 32 bits cannot
// hold base+n is the table wiped and the numbering restarted: once per
// 4 GiB of input.
func (t *matchTable) rebase(n int) uint32 {
	const gap = maxOffset + 1
	if uint64(t.end)+gap+uint64(n) > 1<<32-1 {
		clear(t.slot[:])
		t.end = 0
	}
	base := t.end + gap
	t.end = base + uint32(n)
	return base
}

// Compress encodes src as one LZ4 block: AppendCompress into a buffer of
// its own.
func Compress(src []byte) []byte { return AppendCompress(nil, src) }

// AppendCompress appends src encoded as one LZ4 block to dst, using a
// single-probe hash-table match finder (the greedy fast path of the
// reference encoder); dst grows at most once, to CompressBound(len(src))
// past its length. The result is always decodable by Decompress; empty
// input produces the one-byte empty block. A source past MaxInput panics.
func AppendCompress(dst, src []byte) []byte {
	n := len(src)
	if uint64(n) > MaxInput {
		panic(fmt.Sprintf("lz4: %d-byte source exceeds MaxInput", n))
	}
	if bound := CompressBound(n); cap(dst)-len(dst) < bound {
		dst = append(make([]byte, 0, len(dst)+bound), dst...)
	}
	if n == 0 {
		// A single zero token: no literals, no match — the empty block.
		return append(dst, 0)
	}
	if n < mfLimit+1 {
		return appendLiterals(dst, src)
	}

	t := tables.Get()
	base := t.rebase(n)
	anchor := 0
	si := 0
	limit := n - mfLimit
	maxEnd := n - lastLiterals
	for si < limit {
		cur := load32(src, si)
		h := hash4(cur)
		ref := t.slot[h]
		at := base + uint32(si)
		t.slot[h] = at
		if at-ref > maxOffset || load32(src, int(ref-base)) != cur {
			si++
			continue
		}
		cand := int(ref - base)
		mlen := matchLen(src, cand, si, maxEnd)
		dst = appendSequence(dst, src[anchor:si], si-cand, mlen)
		si += mlen
		anchor = si
		if si < limit {
			// Re-prime the table just behind the cursor so back-to-back
			// matches chain without a literal gap.
			t.slot[hash4(load32(src, si-2))] = base + uint32(si-2)
		}
	}
	tables.Put(t)
	return appendLiterals(dst, src[anchor:])
}

// matchLen extends a verified 4-byte match at si against cand forward,
// eight bytes a step, stopping short of end (the mandatory literal tail).
func matchLen(src []byte, cand, si, end int) int {
	m := minMatch
	for si+m+8 <= end {
		if x := binary.LittleEndian.Uint64(src[si+m:]) ^ binary.LittleEndian.Uint64(src[cand+m:]); x != 0 {
			return m + bits.TrailingZeros64(x)>>3
		}
		m += 8
	}
	for si+m < end && src[cand+m] == src[si+m] {
		m++
	}
	return m
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

// widen[d] is the smallest multiple of d that is at least 8: a match at
// offset d < 8 repeats with that period too, so once its first 8 bytes
// are in place the rest can be copied in words from that far back (the
// inflate fast loop's spread, internal/deflate).
var widen = [8]int{0, 8, 8, 9, 8, 10, 12, 14}

// Decompress decodes one LZ4 block: DecompressInto a buffer of its own.
func Decompress(src []byte, maxOutput int) ([]byte, error) {
	return DecompressInto(nil, src, maxOutput)
}

// DecompressInto decodes one LZ4 block, appending to dst[:0] and reusing
// its capacity, the way internal/deflate's InflateOptions.Dst does; with
// too little capacity the output moves to a buffer of its own, and with
// none that buffer is sized from the block. The caller must not alias dst
// with src. Output is bounded by maxOutput (DefaultMaxOutput when <= 0);
// exceeding the bound fails with an error wrapping ErrTooLarge, running
// off the input or referencing data before the output start with one
// wrapping ErrCorrupt. The decoder is deliberately more permissive than
// the encoder-side end-condition rules: any sequence stream that stays in
// bounds decodes.
//
// Short literal runs and matches are copied in 8-byte words, which may
// store up to 15 bytes past their end; a word is stored only where it fits
// below both cap(dst) and maxOutput, and the last bytes of room take exact
// copies. So nothing past either is ever written, and bytes of dst past
// the returned length are scratch.
func DecompressInto(dst, src []byte, maxOutput int) ([]byte, error) {
	if maxOutput <= 0 {
		maxOutput = DefaultMaxOutput
	}
	if len(src) == 0 {
		return nil, corrupt("empty block")
	}
	out := dst[:cap(dst)]
	if cap(dst) == 0 {
		out = make([]byte, min(3*len(src), maxOutput, 1<<22))
	}
	if len(out) > maxOutput {
		out = out[:maxOutput]
	}
	n, si := 0, 0
	for {
		if si >= len(src) {
			return nil, corrupt("truncated block at %d", si)
		}
		token := src[si]
		si++
		ll := int(token >> 4)
		if ll == 15 {
			for {
				if si >= len(src) {
					return nil, corrupt("truncated length at %d", si)
				}
				b := src[si]
				si++
				if ll += int(b); ll > maxSeqLen {
					return nil, corrupt("length overflow")
				}
				if b != 255 {
					break
				}
			}
		}
		if ll > len(src)-si {
			return nil, corrupt("literal run of %d overruns input", ll)
		}
		if n+ll > maxOutput {
			return nil, fmt.Errorf("%w of %d bytes", ErrTooLarge, maxOutput)
		}
		if ll <= 16 && n+16 <= len(out) && si+16 <= len(src) {
			binary.LittleEndian.PutUint64(out[n:], binary.LittleEndian.Uint64(src[si:]))
			binary.LittleEndian.PutUint64(out[n+8:], binary.LittleEndian.Uint64(src[si+8:]))
		} else {
			if n+ll > len(out) {
				out = grow(out, n, ll, maxOutput)
			}
			copy(out[n:], src[si:si+ll])
		}
		n += ll
		si += ll
		if si == len(src) {
			// A block ends on a literals-only sequence.
			return out[:n], nil
		}
		if len(src)-si < 2 {
			return nil, corrupt("truncated offset at %d", si)
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		if offset == 0 || offset > n {
			return nil, corrupt("offset %d outside %d decoded bytes", offset, n)
		}
		ml := int(token & 0x0F)
		if ml == 15 {
			for {
				if si >= len(src) {
					return nil, corrupt("truncated length at %d", si)
				}
				b := src[si]
				si++
				if ml += int(b); ml > maxSeqLen {
					return nil, corrupt("length overflow")
				}
				if b != 255 {
					break
				}
			}
		}
		ml += minMatch
		if n+ml > maxOutput {
			return nil, fmt.Errorf("%w of %d bytes", ErrTooLarge, maxOutput)
		}
		if offset >= 8 && ml <= 16 && n+16 <= len(out) {
			// A short match at a word's distance or more: two words.
			binary.LittleEndian.PutUint64(out[n:], binary.LittleEndian.Uint64(out[n-offset:]))
			binary.LittleEndian.PutUint64(out[n+8:], binary.LittleEndian.Uint64(out[n-offset+8:]))
			n += ml
			continue
		}
		if n+ml > len(out) {
			out = grow(out, n, ml, maxOutput)
		}
		// Words, each read whole before it is stored, while a word fits the
		// room: at offset 8 or more a word's source is all behind it; below
		// 8 the pattern is spread over the first word and copied on from
		// widen back. Then bytes, in order: offsets smaller than the match
		// length replicate the overlap region, the format's RLE idiom.
		i := 0
		if wide := min(ml, len(out)-n-7); wide > 0 {
			back := offset
			if offset < 8 {
				p := binary.LittleEndian.Uint64(out[n-offset:]) & (1<<(8*uint(offset)) - 1)
				p |= p << (8 * uint(offset))
				p |= p << (16 * uint(offset))
				p |= p << (32 * uint(offset))
				binary.LittleEndian.PutUint64(out[n:], p)
				i, back = 8, widen[offset]
			}
			for ; i < wide; i += 8 {
				binary.LittleEndian.PutUint64(out[n+i:], binary.LittleEndian.Uint64(out[n+i-back:]))
			}
		}
		for ; i < ml; i++ {
			out[n+i] = out[n+i-offset]
		}
		n += ml
	}
}

// grow moves the n bytes decoded so far to a buffer with room for need
// more (the caller has checked n+need against maxOutput): double the old
// one, or enough for need and a word copy's reach, never past maxOutput.
func grow(out []byte, n, need, maxOutput int) []byte {
	buf := make([]byte, min(max(2*len(out), n+need+16), maxOutput))
	copy(buf, out[:n])
	return buf
}
