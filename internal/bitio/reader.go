package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the input.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bit stream")

// Reader consumes bits LSB-first from a byte slice.
type Reader struct {
	data []byte
	pos  int    // next byte index to load
	acc  uint64 // bit accumulator; bits at and above nacc are zero
	nacc uint   // valid bits in acc
}

// NewReader returns a Reader over data. The Reader does not copy data.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Reset re-points the Reader at data and rewinds it.
func (r *Reader) Reset(data []byte) {
	r.data = data
	r.pos = 0
	r.acc = 0
	r.nacc = 0
}

// fill tops the accumulator up to at least 56 bits with one 8-byte load
// while eight input bytes remain, and byte by byte (to at least want bits,
// or to the end of input) over the last seven.
func (r *Reader) fill(want uint) {
	if r.pos+8 <= len(r.data) {
		r.acc |= binary.LittleEndian.Uint64(r.data[r.pos:]) << r.nacc
		n := (63 - r.nacc) >> 3 // whole bytes that fit
		r.pos += int(n)
		r.nacc += n * 8
		r.acc &= 1<<r.nacc - 1 // the partial ninth byte is not ours yet
		return
	}
	for r.nacc < want && r.pos < len(r.data) {
		r.acc |= uint64(r.data[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

// State exposes the read position to a decode loop that keeps the bit
// buffer in locals: the underlying bytes, the index of the next byte to
// load, the accumulator and its count of valid bits. The loop hands the
// last three back through SetState when it stops.
func (r *Reader) State() (data []byte, pos int, acc uint64, nacc uint) {
	return r.data, r.pos, r.acc, r.nacc
}

// SetState moves the Reader to a position a decode loop advanced to. Bits
// of acc at and above nacc are ignored, so the loop may leave the bytes it
// loaded ahead of pos in them.
func (r *Reader) SetState(pos int, acc uint64, nacc uint) {
	r.pos, r.acc, r.nacc = pos, acc&(1<<nacc-1), nacc
}

// ReadBits reads n bits (n <= 48) and returns them as the low bits of the
// result. It returns ErrUnexpectedEOF if fewer than n bits remain.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 48 {
		panic("bitio: ReadBits count out of range")
	}
	if r.nacc < n {
		r.fill(n)
		if r.nacc < n {
			return 0, ErrUnexpectedEOF
		}
	}
	v := r.acc & ((1 << n) - 1)
	r.acc >>= n
	r.nacc -= n
	return v, nil
}

// PeekBits returns up to n bits without consuming them. If fewer than n
// bits remain, the missing high bits are zero; avail reports how many of
// the n bits are real. Decoders use this for table lookups near EOF.
func (r *Reader) PeekBits(n uint) (v uint64, avail uint) {
	if n > 48 {
		panic("bitio: PeekBits count out of range")
	}
	if r.nacc < n {
		r.fill(n)
	}
	avail = r.nacc
	if avail > n {
		avail = n
	}
	return r.acc & ((1 << n) - 1), avail
}

// SkipBits discards n bits. It returns ErrUnexpectedEOF if fewer remain.
func (r *Reader) SkipBits(n uint) error {
	if n <= r.nacc {
		r.acc >>= n
		r.nacc -= n
		return nil
	}
	// Past the accumulator: step over whole bytes without loading them.
	n -= r.nacc
	r.acc, r.nacc = 0, 0
	if n/8 > uint(len(r.data)-r.pos) {
		r.pos = len(r.data)
		return ErrUnexpectedEOF
	}
	r.pos += int(n / 8)
	_, err := r.ReadBits(n % 8)
	return err
}

// ReadBool reads a single bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// AlignByte discards bits up to the next byte boundary and returns the
// number discarded (0..7).
func (r *Reader) AlignByte() uint {
	drop := r.nacc % 8
	r.acc >>= drop
	r.nacc -= drop
	return drop
}

// ReadBytes fills p with the next len(p) whole bytes. The stream must
// already be byte-aligned; aligning is the caller's responsibility.
func (r *Reader) ReadBytes(p []byte) error {
	if r.nacc%8 != 0 {
		panic("bitio: ReadBytes on unaligned stream")
	}
	i := 0
	for ; i < len(p) && r.nacc > 0; i++ {
		p[i] = byte(r.acc)
		r.acc >>= 8
		r.nacc -= 8
	}
	n := copy(p[i:], r.data[r.pos:])
	r.pos += n
	if i+n < len(p) {
		return fmt.Errorf("%w: need %d more bytes", ErrUnexpectedEOF, len(p)-i-n)
	}
	return nil
}

// BitsRemaining reports the number of unread bits.
func (r *Reader) BitsRemaining() int {
	return (len(r.data)-r.pos)*8 + int(r.nacc)
}

// BitsConsumed reports the number of bits consumed so far.
func (r *Reader) BitsConsumed() int {
	return len(r.data)*8 - r.BitsRemaining()
}

// Reverse returns the low n bits of v in reversed order. DEFLATE stores
// Huffman codes MSB-first inside the LSB-first transport, so encoders
// reverse each code once at table-build time.
func Reverse(v uint32, n uint) uint32 {
	var out uint32
	for i := uint(0); i < n; i++ {
		out = out<<1 | (v & 1)
		v >>= 1
	}
	return out
}
