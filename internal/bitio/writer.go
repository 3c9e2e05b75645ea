// Package bitio implements least-significant-bit-first bit streams as used
// by the DEFLATE format (RFC 1951) and by the POWER9/z15 compression
// accelerator's output stage.
//
// DEFLATE packs bits into bytes starting at the least significant bit.
// Huffman codes are written most-significant-bit first *within the code*
// (i.e. the code must be bit-reversed before being fed to WriteBits), while
// extra-bit fields and lengths are written LSB-first as plain integers.
// This package deals only in the raw LSB-first transport; callers perform
// any per-field bit reversal.
package bitio

import "encoding/binary"

// Writer accumulates bits LSB-first into an in-memory buffer.
//
// The zero value is ready to use. Writer never fails: all state lives in
// memory and growth is handled by append.
type Writer struct {
	buf   []byte
	acc   uint64 // bit accumulator, valid low `nacc` bits
	nacc  uint   // number of valid bits in acc (< 8 between calls)
	start int    // length of buf at last Reset, for Len accounting
}

// NewWriter returns a Writer that appends to buf (which may be nil).
func NewWriter(buf []byte) *Writer {
	return &Writer{buf: buf, start: len(buf)}
}

// Reset discards all written data and starts over with an empty buffer,
// retaining the allocated storage.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nacc = 0
	w.start = 0
}

// ResetTo discards all state and continues appending to buf, which must
// be byte-aligned (any []byte is). Unlike Reset it adopts the caller's
// buffer, so an encoder can emit directly into caller-owned storage
// without the Writer holding onto it afterwards.
func (w *Writer) ResetTo(buf []byte) {
	w.buf = buf
	w.acc = 0
	w.nacc = 0
	w.start = len(buf)
}

// WriteBits writes the low n bits of v, LSB first. n must be in [0, 48].
// Bits above n in v are ignored. With eight bytes of capacity to spare the
// accumulator is stored whole and only its whole bytes kept (the bytes
// between len and cap are scratch); closer to the capacity it appends byte
// by byte, filling a caller's buffer to the last byte before outgrowing it.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 48 {
		panic("bitio: WriteBits count out of range")
	}
	w.acc |= v & (1<<n - 1) << w.nacc
	w.nacc += n
	if p := len(w.buf); p+8 <= cap(w.buf) {
		binary.LittleEndian.PutUint64(w.buf[p:p+8], w.acc)
		w.buf = w.buf[:p+int(w.nacc>>3)]
		w.acc >>= w.nacc &^ 7
		w.nacc &= 7
		return
	}
	for w.nacc >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

// State lends the write position to an emit loop that keeps it in locals:
// the buffer (len is what is written, the spare capacity is room to write
// into), the accumulator and its count of pending bits, below 8. SetState
// takes back the buffer re-sliced to the bytes now written, and the rest.
func (w *Writer) State() (buf []byte, acc uint64, nacc uint) { return w.buf, w.acc, w.nacc }

// SetState moves the Writer to where an emit loop advanced to.
func (w *Writer) SetState(buf []byte, acc uint64, nacc uint) { w.buf, w.acc, w.nacc = buf, acc, nacc }

// WriteBool writes a single bit.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// AlignByte pads the stream with zero bits up to the next byte boundary.
// It returns the number of padding bits written (0..7).
func (w *Writer) AlignByte() uint {
	pad := (8 - w.nacc%8) % 8
	if pad > 0 {
		w.WriteBits(0, pad)
	}
	return pad
}

// WriteBytes writes whole bytes. The stream must be byte-aligned; callers
// that may be mid-byte should call AlignByte first. Panics otherwise, since
// an unaligned byte copy indicates an encoder bug, not an input error.
func (w *Writer) WriteBytes(p []byte) {
	if w.nacc != 0 {
		panic("bitio: WriteBytes on unaligned stream")
	}
	w.buf = append(w.buf, p...)
}

// BitsWritten reports the total number of bits written since creation or
// the last Reset, including bits still in the accumulator.
func (w *Writer) BitsWritten() int {
	return (len(w.buf)-w.start)*8 + int(w.nacc)
}

// Bytes flushes the accumulator (zero-padding to a byte boundary) and
// returns the underlying buffer. The Writer remains usable; subsequent
// writes continue byte-aligned.
func (w *Writer) Bytes() []byte {
	w.AlignByte()
	return w.buf
}

// Aligned reports whether the stream is currently at a byte boundary.
func (w *Writer) Aligned() bool { return w.nacc == 0 }
