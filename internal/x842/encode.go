package x842

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
)

// MaxInput is the longest source Compress takes: the match tables hold
// position+1 in 31 bits. nx rejects a longer CRB before it gets here.
const MaxInput = 1<<31 - 1

// matchTables finds, for a 2-, 4- or 8-byte value, its most recent aligned
// occurrence that is still inside that size's fifo — what the format can
// reference. Each size is a hash chain whose link array is the fifo ring
// itself: head[hash(v)] is the newest position (+1; 0 is empty) whose value
// hashes like v, and next[p/chunk mod entries] the one before p.
//
// A walk goes newest to oldest, so positions only decrease, and it ends at
// the first one out of reach: everything further down the chain is older
// still. That check comes before the position's link is read, which is
// what makes sharing the ring sound — the slot of position p is reused
// only by p+fifoSize, and p+fifoSize is inserted after the phrase holding
// it was planned, so every p a walk reads a link of (p >= phrase start -
// fifoSize) still owns its slot. Values are compared in src, so the hash
// decides only how long a walk is, never what it finds.
type matchTables struct {
	head2 [1 << 10]int32
	next2 [1 << i2Bits]int32
	head4 [1 << 11]int32
	next4 [1 << i4Bits]int32
	head8 [1 << 10]int32
	next8 [1 << i8Bits]int32
}

// hashMul is the odd multiplier of the three multiply-shift hashes, drawn
// once per process. Compress's bytes do not depend on it, and a walk is as
// long as its ring (256 or 512 links) only on input built to collide under
// it — which, like the seed of the Go maps these tables replaced, an
// input's author does not have. The top bit keeps 2-byte values spread
// however the rest falls.
var hashMul = rand.Uint64() | 1<<63 | 1

// find walks one chain from c for the value v (right-aligned, 1<<log
// bytes) and returns its fifo index, or -1 if no occurrence is in reach of
// the phrase starting at pos. Any candidate has a whole phrase after it in
// src, so an 8-byte load reads every chunk size.
func find(src []byte, next []int32, c int32, v uint64, pos int, log uint) int {
	for c != 0 {
		cand := int(c - 1)
		if pos-cand > len(next)<<log {
			break
		}
		if binary.BigEndian.Uint64(src[cand:])>>(64-8<<log) == v {
			return cand >> log & (len(next) - 1)
		}
		c = next[cand>>log&(len(next)-1)]
	}
	return -1
}

// bestTemplate maps what a phrase can reference — bit q: an I2 for quarter
// q, bit 4+h: an I4 for half h, bit 6: an I8 — to the opcode the encoder
// emits: the cheapest template whose indices are all available, the lowest
// opcode among equals, D8 when nothing is.
var bestTemplate = func() (best [1 << 7]uint8) {
	for avail := range best {
		cost := opBits + actionBits[actD8]
		for op := 1; op < len(templates); op++ {
			if c, ok := templateCost(templates[op], avail); ok && c < cost {
				best[avail], cost = uint8(op), c
			}
		}
	}
	return best
}()

// templateCost returns the bit cost of a template, and whether avail has
// every index it uses.
func templateCost(t [4]uint8, avail int) (uint, bool) {
	cost := uint(opBits)
	off := 0 // byte offset inside phrase
	for _, a := range t {
		need := 0
		switch a {
		case actI2:
			need = 1 << (off / 2)
		case actI4:
			need = 1 << (4 + off/4)
		case actI8:
			need = 1 << 6
		}
		if avail&need != need {
			return 0, false
		}
		cost += actionBits[a]
		off += actionBytes[a]
	}
	return cost, true
}

// encodeHalf returns the bits of one 4-byte half d coded way: a and b are
// the fifo indices of its two quarters, w of the whole half, each read
// only by a way that bestTemplate chose because it was found.
func encodeHalf(way uint8, d uint64, a, b, w int) uint64 {
	switch way {
	case halfD4:
		return d
	case halfD2I2:
		return d>>16<<i2Bits | uint64(b)
	case halfI2D2:
		return uint64(a)<<16 | d&0xFFFF
	case halfI2I2:
		return uint64(a)<<i2Bits | uint64(b)
	}
	return uint64(w)
}

// put appends the low n bits of v (n <= 56, the rest of v zero) to the
// stream: acc holds the nacc < 8 bits not yet part of a whole byte,
// left-aligned, and every call stores the accumulator's eight bytes at
// dst[o:] — so the bytes below o are final, the partial byte at o is
// already in place when the stream ends, and dst needs eight bytes of
// slack past the last whole byte.
func put(dst []byte, o int, acc uint64, nacc uint, v uint64, n uint) (int, uint64, uint) {
	acc |= v << ((64 - nacc - n) & 63)
	nacc += n
	binary.BigEndian.PutUint64(dst[o:], acc)
	return o + int(nacc>>3), acc << (nacc &^ 7 & 63), nacc & 7
}

func repeatOp(rep int) uint64 { return opRepeat<<repeatBits | uint64(rep-1) }

// Compress encodes src in 842 format: AppendCompress into a buffer of its
// own.
func Compress(src []byte) []byte { return AppendCompress(nil, src) }

// AppendCompress appends src encoded in 842 format to dst. The output
// always ends with OP_END and is padded to a byte boundary. dst grows at
// most once, to the format's worst case past its length.
func AppendCompress(dst, src []byte) []byte {
	if len(src) > MaxInput {
		panic(fmt.Sprintf("x842: %d-byte source exceeds MaxInput", len(src)))
	}
	// The format's worst case: 69 bits a phrase, a 7-byte tail as short
	// data, END; plus put's slack.
	const tailBits = opBits + shortDataBits + 7*8 + opBits
	size := (len(src)/8*(opBits+64)+tailBits+7)/8 + 8
	start := len(dst)
	if cap(dst)-start < size {
		dst = append(make([]byte, 0, start+size), dst...)
	}
	dst = dst[:start+size]
	body := dst[start:]
	var (
		t    matchTables
		mul  = hashMul
		o    int    // whole bytes written
		acc  uint64 // see put
		nacc uint
		prev uint64 // the phrase before pos, once pos > 0
		rep  int    // phrases equal to prev not yet written as a repeat
		// Where the seven chunks of prev hash; a repeated phrase reuses them.
		h20, h21, h22, h23, h40, h41, h8 uint64
	)
	pos := 0
	for ; pos+8 <= len(src); pos += 8 {
		phrase := binary.BigEndian.Uint64(src[pos:])
		if pos > 0 && phrase == prev {
			// Collapse a run of identical phrases into repeat ops.
			if rep++; rep == maxRepeat {
				o, acc, nacc = put(body, o, acc, nacc, repeatOp(rep), opBits+repeatBits)
				rep = 0
			}
		} else {
			if rep > 0 {
				o, acc, nacc = put(body, o, acc, nacc, repeatOp(rep), opBits+repeatBits)
				rep = 0
			}
			prev = phrase
			q0, q1, q2, q3 := phrase>>48, phrase>>32&0xFFFF, phrase>>16&0xFFFF, phrase&0xFFFF
			d0, d1 := phrase>>32, phrase&0xFFFFFFFF
			h20, h21, h22, h23 = q0*mul>>54, q1*mul>>54, q2*mul>>54, q3*mul>>54
			h40, h41, h8 = d0*mul>>53, d1*mul>>53, phrase*mul>>54
			if phrase == 0 {
				o, acc, nacc = put(body, o, acc, nacc, opZeros, opBits)
			} else if i8 := find(src, t.next8[:], t.head8[h8], phrase, pos, 3); i8 >= 0 {
				// Nothing beats 13 bits: the other six lookups are moot.
				o, acc, nacc = put(body, o, acc, nacc, opI8<<i8Bits|uint64(i8), opBits+i8Bits)
			} else {
				// An I4 likewise settles its half without the two I2s.
				avail := 0
				a0, a1, a2, a3 := -1, -1, -1, -1
				w0 := find(src, t.next4[:], t.head4[h40], d0, pos, 2)
				if w0 >= 0 {
					avail |= 1 << 4
				} else {
					if a0 = find(src, t.next2[:], t.head2[h20], q0, pos, 1); a0 >= 0 {
						avail |= 1 << 0
					}
					if a1 = find(src, t.next2[:], t.head2[h21], q1, pos, 1); a1 >= 0 {
						avail |= 1 << 1
					}
				}
				w1 := find(src, t.next4[:], t.head4[h41], d1, pos, 2)
				if w1 >= 0 {
					avail |= 1 << 5
				} else {
					if a2 = find(src, t.next2[:], t.head2[h22], q2, pos, 1); a2 >= 0 {
						avail |= 1 << 2
					}
					if a3 = find(src, t.next2[:], t.head2[h23], q3, pos, 1); a3 >= 0 {
						avail |= 1 << 3
					}
				}
				op := bestTemplate[avail]
				first, second := op/halfWays, op%halfWays
				o, acc, nacc = put(body, o, acc, nacc,
					uint64(op)<<halfBits[first]|encodeHalf(first, d0, a0, a1, w0), opBits+halfBits[first])
				o, acc, nacc = put(body, o, acc, nacc, encodeHalf(second, d1, a2, a3, w1), halfBits[second])
			}
		}
		// Index the phrase's chunks, in position order so that of two equal
		// ones the later is the newer.
		p := int32(pos + 1)
		s2, s4, s8 := pos>>1&(len(t.next2)-1), pos>>2&(len(t.next4)-1), pos>>3&(len(t.next8)-1)
		t.next2[s2], t.head2[h20] = t.head2[h20], p
		t.next2[s2+1], t.head2[h21] = t.head2[h21], p+2
		t.next2[s2+2], t.head2[h22] = t.head2[h22], p+4
		t.next2[s2+3], t.head2[h23] = t.head2[h23], p+6
		t.next4[s4], t.head4[h40] = t.head4[h40], p
		t.next4[s4+1], t.head4[h41] = t.head4[h41], p+4
		t.next8[s8], t.head8[h8] = t.head8[h8], p
	}
	if rep > 0 {
		o, acc, nacc = put(body, o, acc, nacc, repeatOp(rep), opBits+repeatBits)
	}
	if tail := src[pos:]; len(tail) > 0 {
		var b [8]byte
		copy(b[:], tail)
		o, acc, nacc = put(body, o, acc, nacc, opShortData<<shortDataBits|uint64(len(tail)), opBits+shortDataBits)
		o, acc, nacc = put(body, o, acc, nacc, binary.BigEndian.Uint64(b[:])>>(64-8*len(tail)), uint(8*len(tail)))
	}
	o, _, nacc = put(body, o, acc, nacc, opEnd, opBits)
	return dst[:start+o+int(nacc+7)>>3]
}
