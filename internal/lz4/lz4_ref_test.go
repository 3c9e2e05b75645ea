package lz4

import (
	"fmt"
)

// The byte-at-a-time LZ4 codec as it stood before the word-wide kernels,
// kept verbatim (names prefixed ref) as the oracle the differential tests
// hold Compress and Decompress to: equal blocks, and equal bytes or an
// equal error — class and text — on any block and budget. Its helpers are
// copied too, so a change to the package's cannot move the oracle.

func refLoad32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

func refHash4(u uint32) uint32 { return (u * 2654435761) >> hashShift }

// refCompress encodes src as one LZ4 block using a single-probe hash-table
// match finder (the greedy fast path of the reference encoder). The
// result is always decodable by Decompress; empty input produces the
// one-byte empty block.
func refCompress(src []byte) []byte {
	dst := make([]byte, 0, CompressBound(len(src)))
	n := len(src)
	if n == 0 {
		// A single zero token: no literals, no match — the empty block.
		return append(dst, 0)
	}
	if n < mfLimit+1 {
		return refAppendLiterals(dst, src)
	}

	// Positions are stored +1 so the zero value means "empty slot".
	var table [1 << hashLog]int32
	anchor := 0
	si := 0
	limit := n - mfLimit
	for si < limit {
		h := refHash4(refLoad32(src, si))
		cand := int(table[h]) - 1
		table[h] = int32(si + 1)
		if cand < 0 || si-cand > maxOffset || refLoad32(src, cand) != refLoad32(src, si) {
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
		dst = refAppendSequence(dst, src[anchor:si], si-cand, mlen)
		si += mlen
		anchor = si
		if si < limit {
			// Re-prime the table just behind the cursor so back-to-back
			// matches chain without a literal gap.
			table[refHash4(refLoad32(src, si-2))] = int32(si - 1)
		}
	}
	return refAppendLiterals(dst, src[anchor:])
}

// refAppendLen emits a 255-continuation extension for v (the amount above
// the token nibble's 15).
func refAppendLen(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// refAppendLiterals emits a literals-only sequence — the block terminator.
func refAppendLiterals(dst, lits []byte) []byte {
	ll := len(lits)
	if ll >= 15 {
		dst = append(dst, 0xF0)
		dst = refAppendLen(dst, ll-15)
	} else {
		dst = append(dst, byte(ll)<<4)
	}
	return append(dst, lits...)
}

// refAppendSequence emits one token + literals + offset + match sequence.
func refAppendSequence(dst, lits []byte, offset, mlen int) []byte {
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
		dst = refAppendLen(dst, ll-15)
	}
	dst = append(dst, lits...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = refAppendLen(dst, ml-15)
	}
	return dst
}

func refCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// refReadLen accumulates a 255-continuation length extension starting at
// *si, returning base plus the extension.
func refReadLen(src []byte, si *int, base int) (int, error) {
	v := base
	for {
		if *si >= len(src) {
			return 0, refCorrupt("truncated length at %d", *si)
		}
		b := src[*si]
		*si++
		v += int(b)
		if v > maxSeqLen {
			return 0, refCorrupt("length overflow")
		}
		if b != 255 {
			return v, nil
		}
	}
}

// refDecompress decodes one LZ4 block. Output is bounded by maxOutput
// (DefaultMaxOutput when <= 0); exceeding the bound fails with an error
// wrapping ErrTooLarge, running off the input or referencing data before
// the output start with one wrapping ErrCorrupt. The decoder is
// deliberately more permissive than the encoder-side end-condition rules:
// any sequence stream that stays in bounds decodes.
func refDecompress(src []byte, maxOutput int) ([]byte, error) {
	if maxOutput <= 0 {
		maxOutput = DefaultMaxOutput
	}
	if len(src) == 0 {
		return nil, refCorrupt("empty block")
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
			return nil, refCorrupt("truncated block at %d", si)
		}
		token := src[si]
		si++
		ll := int(token >> 4)
		if ll == 15 {
			var err error
			ll, err = refReadLen(src, &si, ll)
			if err != nil {
				return nil, err
			}
		}
		if ll > len(src)-si {
			return nil, refCorrupt("literal run of %d overruns input", ll)
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
			return nil, refCorrupt("truncated offset at %d", si)
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		if offset == 0 || offset > len(out) {
			return nil, refCorrupt("offset %d outside %d decoded bytes", offset, len(out))
		}
		ml := int(token & 0x0F)
		if ml == 15 {
			var err error
			ml, err = refReadLen(src, &si, ml)
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
