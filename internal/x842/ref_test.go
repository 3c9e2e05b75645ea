package x842

// ref_test.go is the pre-rewrite 842 codec, verbatim apart from the ref
// prefix on its names: the three-map encoder with its per-phrase template
// search and byte-at-a-time bit writer, and the append-per-action decoder
// with its byte-at-a-time reader. It is the oracle the table-driven kernels
// are held to (equal bytes out of Compress; equal bytes or an equal error
// class out of Decompress) and must not be edited to follow them. It
// shares only the format's constants (opcodes, templates, fifo geometry)
// with the production code.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var refErrTruncated = errors.New("x842: truncated stream")

// refCompress encodes src in 842 format. The output always ends with OP_END
// and is padded to a byte boundary.
func refCompress(src []byte) []byte {
	w := &refMSBWriter{buf: make([]byte, 0, len(src)/2+16)}
	e := &refEncoder{w: w, src: src}
	e.run()
	return w.bytes()
}

type refEncoder struct {
	w   *refMSBWriter
	src []byte
	// hash maps from chunk value to the most recent aligned position.
	h2  map[uint16]int
	h4  map[uint32]int
	h8  map[uint64]int
	pos int
}

func (e *refEncoder) run() {
	e.h2 = make(map[uint16]int)
	e.h4 = make(map[uint32]int)
	e.h8 = make(map[uint64]int)
	src := e.src
	var prev uint64
	havePrev := false
	for e.pos+8 <= len(src) {
		chunk := binary.BigEndian.Uint64(src[e.pos:])
		if havePrev && chunk == prev {
			// Collapse a run of identical phrases into repeat ops.
			count := 0
			for count < maxRepeat && e.pos+8 <= len(src) &&
				binary.BigEndian.Uint64(src[e.pos:]) == chunk {
				count++
				e.indexPhrase(e.pos)
				e.pos += 8
			}
			e.w.writeBits(opRepeat, opBits)
			e.w.writeBits(uint64(count-1), repeatBits)
			continue
		}
		if chunk == 0 {
			e.w.writeBits(opZeros, opBits)
			e.indexPhrase(e.pos)
			e.pos += 8
			prev, havePrev = 0, true
			continue
		}
		e.encodePhrase(e.pos)
		e.indexPhrase(e.pos)
		e.pos += 8
		prev, havePrev = chunk, true
	}
	if tail := len(src) - e.pos; tail > 0 {
		e.w.writeBits(opShortData, opBits)
		e.w.writeBits(uint64(tail), shortDataBits)
		for _, b := range src[e.pos:] {
			e.w.writeBits(uint64(b), 8)
		}
	}
	e.w.writeBits(opEnd, opBits)
}

// refFifoIndex returns the stream index for a candidate position, or -1 if
// the candidate has fallen out of the ring window. total is the number of
// phrase-aligned bytes emitted so far.
func refFifoIndex(cand, total, chunk, fsize int) int {
	if cand < 0 || cand+chunk > total {
		return -1
	}
	if total-cand > fsize {
		return -1
	}
	return (cand % fsize) / chunk
}

// sub-chunk availability for the current phrase.
type refPhrasePlan struct {
	i2 [4]int // index or -1 per 2-byte quarter
	i4 [2]int // per 4-byte half
	i8 int
}

func (e *refEncoder) plan(pos int) refPhrasePlan {
	var p refPhrasePlan
	total := pos // bytes fully emitted (phrase-aligned since pos is)
	src := e.src
	for q := 0; q < 4; q++ {
		v := binary.BigEndian.Uint16(src[pos+2*q:])
		cand, ok := e.h2[v]
		p.i2[q] = -1
		if ok {
			p.i2[q] = refFifoIndex(cand, total, 2, fifo2Size)
		}
	}
	for h := 0; h < 2; h++ {
		v := binary.BigEndian.Uint32(src[pos+4*h:])
		cand, ok := e.h4[v]
		p.i4[h] = -1
		if ok {
			p.i4[h] = refFifoIndex(cand, total, 4, fifo4Size)
		}
	}
	v := binary.BigEndian.Uint64(src[pos:])
	p.i8 = -1
	if cand, ok := e.h8[v]; ok {
		p.i8 = refFifoIndex(cand, total, 8, fifo8Size)
	}
	return p
}

// encodePhrase picks the cheapest template for the 8 bytes at pos and
// writes it.
func (e *refEncoder) encodePhrase(pos int) {
	p := e.plan(pos)
	bestOp, bestCost := 0x00, uint(opBits)+64 // D8 fallback
	for op := 1; op < len(templates); op++ {
		cost, ok := refTemplateCost(templates[op], p)
		if ok && cost < bestCost {
			bestOp, bestCost = op, cost
		}
	}
	e.w.writeBits(uint64(bestOp), opBits)
	e.writeActions(templates[bestOp], p, pos)
}

// refTemplateCost returns the bit cost of a template given availability.
func refTemplateCost(t [4]uint8, p refPhrasePlan) (uint, bool) {
	cost := uint(opBits)
	off := 0 // byte offset inside phrase
	for _, a := range t {
		switch a {
		case actI2:
			if p.i2[off/2] < 0 {
				return 0, false
			}
		case actI4:
			if p.i4[off/4] < 0 {
				return 0, false
			}
		case actI8:
			if p.i8 < 0 {
				return 0, false
			}
		}
		cost += actionBits[a]
		off += actionBytes[a]
	}
	return cost, true
}

func (e *refEncoder) writeActions(t [4]uint8, p refPhrasePlan, pos int) {
	off := 0
	src := e.src
	for _, a := range t {
		switch a {
		case actD8:
			// 64 bits exceed the single-call limit; split high 57 + low 7.
			v := binary.BigEndian.Uint64(src[pos+off:])
			e.w.writeBits(v>>7, 57)
			e.w.writeBits(v&0x7F, 7)
		case actD4:
			e.w.writeBits(uint64(binary.BigEndian.Uint32(src[pos+off:])), 32)
		case actD2:
			e.w.writeBits(uint64(binary.BigEndian.Uint16(src[pos+off:])), 16)
		case actI2:
			e.w.writeBits(uint64(p.i2[off/2]), i2Bits)
		case actI4:
			e.w.writeBits(uint64(p.i4[off/4]), i4Bits)
		case actI8:
			e.w.writeBits(uint64(p.i8), i8Bits)
		}
		off += actionBytes[a]
	}
}

// indexPhrase records the phrase's sub-chunks in the hash tables.
func (e *refEncoder) indexPhrase(pos int) {
	src := e.src
	for q := 0; q < 4; q++ {
		e.h2[binary.BigEndian.Uint16(src[pos+2*q:])] = pos + 2*q
	}
	for h := 0; h < 2; h++ {
		e.h4[binary.BigEndian.Uint32(src[pos+4*h:])] = pos + 4*h
	}
	e.h8[binary.BigEndian.Uint64(src[pos:])] = pos
}

// refDecompress decodes an 842 stream. maxOutput bounds the result
// (0 = 256 MiB default).
func refDecompress(src []byte, maxOutput int) ([]byte, error) {
	if maxOutput <= 0 {
		maxOutput = 256 << 20
	}
	r := &refMSBReader{data: src}
	out := make([]byte, 0, len(src)*2)
	for {
		op, err := r.readBits(opBits)
		if err != nil {
			return nil, fmt.Errorf("%w: opcode", ErrCorrupt)
		}
		switch {
		case op < uint64(len(templates)):
			if len(out)+8 > maxOutput {
				return nil, fmt.Errorf("x842: output exceeds %d bytes", maxOutput)
			}
			out, err = refDecodePhrase(r, out, templates[op])
			if err != nil {
				return nil, err
			}
		case op == opRepeat:
			n, err := r.readBits(repeatBits)
			if err != nil {
				return nil, fmt.Errorf("%w: repeat count", ErrCorrupt)
			}
			if len(out) < 8 {
				return nil, fmt.Errorf("%w: repeat with no previous phrase", ErrCorrupt)
			}
			count := int(n) + 1
			if len(out)+8*count > maxOutput {
				return nil, fmt.Errorf("x842: output exceeds %d bytes", maxOutput)
			}
			phrase := out[len(out)-8:]
			var tmp [8]byte
			copy(tmp[:], phrase)
			for i := 0; i < count; i++ {
				out = append(out, tmp[:]...)
			}
		case op == opZeros:
			if len(out)+8 > maxOutput {
				return nil, fmt.Errorf("x842: output exceeds %d bytes", maxOutput)
			}
			out = append(out, 0, 0, 0, 0, 0, 0, 0, 0)
		case op == opShortData:
			n, err := r.readBits(shortDataBits)
			if err != nil {
				return nil, fmt.Errorf("%w: short-data count", ErrCorrupt)
			}
			if n == 0 {
				return nil, fmt.Errorf("%w: zero-length short data", ErrCorrupt)
			}
			for i := uint64(0); i < n; i++ {
				b, err := r.readBits(8)
				if err != nil {
					return nil, fmt.Errorf("%w: short data", ErrCorrupt)
				}
				if len(out)+1 > maxOutput {
					return nil, fmt.Errorf("x842: output exceeds %d bytes", maxOutput)
				}
				out = append(out, byte(b))
			}
		case op == opEnd:
			return out, nil
		default:
			return nil, fmt.Errorf("%w: reserved opcode %#x", ErrCorrupt, op)
		}
	}
}

func refDecodePhrase(r *refMSBReader, out []byte, t [4]uint8) ([]byte, error) {
	phraseStart := len(out)
	for _, a := range t {
		switch a {
		case actN0:
		case actD8:
			hi, err := r.readBits(57)
			if err != nil {
				return nil, fmt.Errorf("%w: D8", ErrCorrupt)
			}
			lo, err := r.readBits(7)
			if err != nil {
				return nil, fmt.Errorf("%w: D8", ErrCorrupt)
			}
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], hi<<7|lo)
			out = append(out, b[:]...)
		case actD4:
			v, err := r.readBits(32)
			if err != nil {
				return nil, fmt.Errorf("%w: D4", ErrCorrupt)
			}
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(v))
			out = append(out, b[:]...)
		case actD2:
			v, err := r.readBits(16)
			if err != nil {
				return nil, fmt.Errorf("%w: D2", ErrCorrupt)
			}
			out = append(out, byte(v>>8), byte(v))
		case actI2, actI4, actI8:
			bits, chunk, fsize := uint(i2Bits), 2, fifo2Size
			if a == actI4 {
				bits, chunk, fsize = i4Bits, 4, fifo4Size
			} else if a == actI8 {
				bits, chunk, fsize = i8Bits, 8, fifo8Size
			}
			idx, err := r.readBits(bits)
			if err != nil {
				return nil, fmt.Errorf("%w: index", ErrCorrupt)
			}
			offset, err := refResolveIndex(int(idx), phraseStart, chunk, fsize)
			if err != nil {
				return nil, err
			}
			out = append(out, out[offset:offset+chunk]...)
		}
	}
	return out, nil
}

// refResolveIndex converts a ring-buffer index into an absolute offset, using
// the same section arithmetic as the kernel decoder. total is the number
// of phrase-aligned bytes produced before the current phrase.
func refResolveIndex(idx, total, chunk, fsize int) (int, error) {
	offset := idx * chunk
	if total > fsize {
		section := total - total%fsize
		pos := total - section
		if offset >= pos {
			section -= fsize
		}
		offset += section
	}
	if offset < 0 || offset+chunk > total {
		return 0, fmt.Errorf("%w: index references %d beyond %d", ErrCorrupt, offset, total)
	}
	return offset, nil
}

// refMSBWriter packs bits MSB-first (842's bit order, unlike DEFLATE).
type refMSBWriter struct {
	buf  []byte
	acc  uint64
	nacc uint
}

func (w *refMSBWriter) writeBits(v uint64, n uint) {
	if n > 57 {
		panic("x842: writeBits count out of range")
	}
	v &= (1 << n) - 1
	w.acc |= v << (64 - w.nacc - n)
	w.nacc += n
	for w.nacc >= 8 {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc <<= 8
		w.nacc -= 8
	}
}

// bytes flushes with zero padding to the next byte and returns the buffer.
func (w *refMSBWriter) bytes() []byte {
	if w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc = 0
		w.nacc = 0
	}
	return w.buf
}

// refMSBReader consumes bits MSB-first.
type refMSBReader struct {
	data []byte
	pos  int
	acc  uint64
	nacc uint
}

func (r *refMSBReader) readBits(n uint) (uint64, error) {
	if n > 57 {
		panic("x842: readBits count out of range")
	}
	for r.nacc < n {
		if r.pos >= len(r.data) {
			return 0, refErrTruncated
		}
		r.acc |= uint64(r.data[r.pos]) << (56 - r.nacc)
		r.pos++
		r.nacc += 8
	}
	v := r.acc >> (64 - n)
	r.acc <<= n
	r.nacc -= n
	return v, nil
}
