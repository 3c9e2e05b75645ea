package x842

import (
	"encoding/binary"
	"fmt"
	"math"
)

// defaultMaxOutput bounds Decompress when the caller does not.
const defaultMaxOutput = 256 << 20

// peek returns the stream from bit bp on, left-aligned: at least 57 bits.
func peek(buf []byte, bp int) uint64 {
	return binary.BigEndian.Uint64(buf[bp>>3:]) << (bp & 7)
}

// resolve converts a ring-buffer index into an absolute offset, or -1 if
// the chunk it names (1<<log bytes) is not all decoded yet. total is the
// number of bytes produced before the current phrase. A fifo holds the
// fsize bytes before total, at their offsets modulo fsize, and the whole
// output while that is shorter — the section arithmetic of the kernel
// decoder with the modulus a constant mask.
func resolve(idx uint64, total int, log uint, fsize int) int {
	base := max(total-fsize, 0)
	off := base + (int(idx)<<log-base)&(fsize-1)
	if off+1<<log > total {
		return -1
	}
	return off
}

// room returns out with space for need more bytes after the n decoded, or
// ErrTooLarge if that would pass maxOutput. Growth doubles, up to the
// budget.
func room(out []byte, n, need, maxOutput int) ([]byte, error) {
	if n+need > maxOutput {
		return nil, fmt.Errorf("%w of %d bytes", ErrTooLarge, maxOutput)
	}
	if n+need > len(out) {
		out = append(out, make([]byte, min(max(len(out), need), maxOutput-len(out)))...)
	}
	return out, nil
}

func truncated(what string) error {
	return fmt.Errorf("%w: %w in %s", ErrCorrupt, ErrTruncated, what)
}

// Decompress decodes an 842 stream: DecompressInto a buffer of its own.
func Decompress(src []byte, maxOutput int) ([]byte, error) {
	return DecompressInto(nil, src, maxOutput)
}

// DecompressInto decodes an 842 stream, appending to dst[:0] and reusing
// its capacity; with too little capacity the output moves to a buffer of
// its own, and with none that buffer is sized from the stream. The caller
// must not alias dst with src. maxOutput bounds the result (0 = 256 MiB
// default); nothing past it or cap(dst) is written.
func DecompressInto(dst, src []byte, maxOutput int) ([]byte, error) {
	if maxOutput <= 0 {
		maxOutput = defaultMaxOutput
	}
	// out is sized, not appended to: operations store through it, never
	// past the budget, and n is how much is decoded. A caller's exact
	// budget is one allocation.
	out := dst[:min(cap(dst), maxOutput)]
	if cap(dst) == 0 {
		out = make([]byte, min(maxOutput, 2*len(src)+8*maxRepeat))
	}
	var (
		err error
		n   int
		buf = src          // what bp indexes
		bp  int            // the next operation's first bit
		end = 8 * len(src) // the first bit past the stream
		// Operations read the stream in 8-byte loads, and the longest takes
		// 69 bits: one that starts 16 bytes before the end of buf stays
		// inside it. The last operations run on a zero-padded copy instead,
		// where reading past end is harmless and shows as bp > end after.
		safe = 8 * (len(src) - 16)
		last [32]byte
	)
	for {
		if bp > safe {
			copy(last[:], src[bp>>3:])
			buf, end, bp, safe = last[:], end-bp&^7, bp&7, math.MaxInt
		}
		if bp+opBits > end {
			return nil, truncated("opcode")
		}
		w := peek(buf, bp)
		op := w >> (64 - opBits)
		w <<= opBits
		// The next operation starts at a bit position that depends only on
		// this load and one table entry, not on decoding the operation.
		at := bp + opBits
		bp += int(opLen[op])
		if op <= opI8 {
			if n+8 > len(out) {
				if out, err = room(out, n, 8, maxOutput); err != nil {
					return nil, err
				}
			}
			bad := 0 // negative once an index has failed to resolve
			if op == opI8 {
				a := resolve(w>>(64-i8Bits), n, 3, fifo8Size)
				if a >= 0 {
					binary.BigEndian.PutUint64(out[n:], binary.BigEndian.Uint64(out[a:]))
				}
				bad = a
			} else {
				// Indices resolve against n, the start of the phrase: its
				// second half cannot reference its first.
				way, to := op/halfWays, n
				for {
					a, b := 0, 0 // the fifo entries this half copies
					switch way {
					case halfD4:
						binary.BigEndian.PutUint32(out[to:], uint32(w>>32))
					case halfD2I2:
						binary.BigEndian.PutUint16(out[to:], uint16(w>>48))
						if b = resolve(w>>40&0xFF, n, 1, fifo2Size); b >= 0 {
							binary.BigEndian.PutUint16(out[to+2:], binary.BigEndian.Uint16(out[b:]))
						}
					case halfI2D2:
						if a = resolve(w>>56, n, 1, fifo2Size); a >= 0 {
							binary.BigEndian.PutUint16(out[to:], binary.BigEndian.Uint16(out[a:]))
						}
						binary.BigEndian.PutUint16(out[to+2:], uint16(w>>40))
					case halfI2I2:
						a, b = resolve(w>>56, n, 1, fifo2Size), resolve(w>>48&0xFF, n, 1, fifo2Size)
						if a|b >= 0 {
							binary.BigEndian.PutUint16(out[to:], binary.BigEndian.Uint16(out[a:]))
							binary.BigEndian.PutUint16(out[to+2:], binary.BigEndian.Uint16(out[b:]))
						}
					default:
						if a = resolve(w>>(64-i4Bits), n, 2, fifo4Size); a >= 0 {
							binary.BigEndian.PutUint32(out[to:], binary.BigEndian.Uint32(out[a:]))
						}
					}
					bad |= a | b
					if to != n {
						break
					}
					w = peek(buf, at+int(halfBits[way]))
					way, to = op%halfWays, n+4
				}
			}
			if bad < 0 {
				if bp > end {
					return nil, truncated("template")
				}
				return nil, fmt.Errorf("%w: index beyond the %d bytes decoded", ErrCorrupt, n)
			}
			n += 8
			continue
		}
		switch op {
		case opRepeat:
			if bp > end {
				return nil, truncated("repeat count")
			}
			if n < 8 {
				return nil, fmt.Errorf("%w: repeat with no previous phrase", ErrCorrupt)
			}
			need := 8 * (int(w>>(64-repeatBits)) + 1)
			if out, err = room(out, n, need, maxOutput); err != nil {
				return nil, err
			}
			phrase := binary.BigEndian.Uint64(out[n-8:])
			for ; need > 0; need -= 8 {
				binary.BigEndian.PutUint64(out[n:], phrase)
				n += 8
			}
		case opZeros:
			if out, err = room(out, n, 8, maxOutput); err != nil {
				return nil, err
			}
			binary.BigEndian.PutUint64(out[n:], 0)
			n += 8
		case opShortData:
			if bp > end {
				return nil, truncated("short-data count")
			}
			need := int(w >> (64 - shortDataBits))
			if need == 0 {
				return nil, fmt.Errorf("%w: zero-length short data", ErrCorrupt)
			}
			// Byte by byte the stream is read before the budget is checked:
			// whichever runs out first is the error.
			if have := (end - bp) >> 3; have < need && have <= maxOutput-n {
				return nil, truncated("short data")
			}
			if out, err = room(out, n, need, maxOutput); err != nil {
				return nil, err
			}
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], peek(buf, bp))
			n += copy(out[n:n+need], b[:])
			bp += 8 * need
		case opEnd:
			return out[:n], nil
		default:
			return nil, fmt.Errorf("%w: reserved opcode %#x", ErrCorrupt, op)
		}
	}
}
