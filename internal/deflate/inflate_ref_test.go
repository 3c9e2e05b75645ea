package deflate

import (
	"fmt"

	"nxzip/internal/bitio"
	"nxzip/internal/huffman"
)

// The inflate path as it stood before the single fast core (inflate,
// inflateBlock, readDynamicHeader, huffman.Decoder and bitio.Reader, verbatim apart from
// the ref names): one Decode call per symbol through the two-level table,
// byte-at-a-time match copy. It is the oracle TestInflateEqualsReference
// and FuzzInflateEqualsReference hold the production decoder to — equal
// bytes, equal consumed input, equal error class.

// refDecompressTail is DecompressTail over the reference decoder.
func refDecompressTail(src []byte, opts InflateOptions) (out []byte, consumed int, err error) {
	r := newRefReader(src)
	out, err = refInflate(r, opts)
	if err != nil {
		return nil, 0, err
	}
	r.AlignByte()
	return out, r.BitsConsumed() / 8, nil
}

func refFixedDecoders() (*refDecoder, *refDecoder, error) {
	ll, err := newRefDecoder(FixedLitLenLengths(), huffman.DefaultPrimaryBits)
	if err != nil {
		return nil, nil, err
	}
	d, err := newRefDecoder(FixedDistLengths(), huffman.DefaultPrimaryBits)
	return ll, d, err
}

func refInflate(r *refReader, opts InflateOptions) ([]byte, error) {
	maxOut := opts.MaxOutput
	if maxOut <= 0 {
		maxOut = defaultMaxOutput
	}
	var out []byte
	if opts.Dst != nil {
		out = opts.Dst[:0]
	}
	for {
		final, err := r.ReadBool()
		if err != nil {
			return nil, fmt.Errorf("%w: missing block header", ErrCorrupt)
		}
		btype, err := r.ReadBits(2)
		if err != nil {
			return nil, fmt.Errorf("%w: missing block type", ErrCorrupt)
		}
		switch btype {
		case 0: // stored
			r.AlignByte()
			lenv, err := r.ReadBits(16)
			if err != nil {
				return nil, fmt.Errorf("%w: stored length", ErrCorrupt)
			}
			nlen, err := r.ReadBits(16)
			if err != nil {
				return nil, fmt.Errorf("%w: stored nlen", ErrCorrupt)
			}
			if uint16(lenv) != ^uint16(nlen) {
				return nil, fmt.Errorf("%w: stored LEN/NLEN mismatch", ErrCorrupt)
			}
			if len(out)+int(lenv) > maxOut {
				return nil, ErrTooLarge
			}
			// Grow out and read the payload straight into it — no staging
			// buffer.
			n := len(out)
			for j := 0; j < int(lenv); j++ {
				out = append(out, 0)
			}
			if err := r.ReadBytes(out[n:]); err != nil {
				return nil, fmt.Errorf("%w: stored payload truncated", ErrCorrupt)
			}
		case 1: // fixed Huffman
			fixedLL, fixedD, err := refFixedDecoders()
			if err != nil {
				return nil, err
			}
			out, err = refInflateBlock(r, out, maxOut, fixedLL, fixedD)
			if err != nil {
				return nil, err
			}
		case 2: // dynamic Huffman
			ll, d, err := refReadDynamicHeader(r)
			if err != nil {
				return nil, err
			}
			out, err = refInflateBlock(r, out, maxOut, ll, d)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: reserved block type 3", ErrCorrupt)
		}
		if final {
			return out, nil
		}
	}
}

// refReadDynamicHeader parses HLIT/HDIST/HCLEN and the two code tables.
func refReadDynamicHeader(r *refReader) (ll, d *refDecoder, err error) {
	hlit, err := r.ReadBits(5)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: HLIT", ErrCorrupt)
	}
	hdist, err := r.ReadBits(5)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: HDIST", ErrCorrupt)
	}
	hclen, err := r.ReadBits(4)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: HCLEN", ErrCorrupt)
	}
	nlit := int(hlit) + 257
	ndist := int(hdist) + 1
	ncl := int(hclen) + 4
	if nlit > NumLitLen {
		return nil, nil, fmt.Errorf("%w: HLIT %d too large", ErrCorrupt, nlit)
	}
	if ndist > NumDist {
		return nil, nil, fmt.Errorf("%w: HDIST %d too large", ErrCorrupt, ndist)
	}
	clLengths := make([]uint8, NumCodeLength)
	for i := 0; i < ncl; i++ {
		v, err := r.ReadBits(3)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: CL lengths", ErrCorrupt)
		}
		clLengths[clOrder[i]] = uint8(v)
	}
	clDec, err := newRefDecoder(clLengths, 7)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: CL table: %v", ErrCorrupt, err)
	}
	lengths := make([]uint8, nlit+ndist)
	for i := 0; i < len(lengths); {
		sym, err := clDec.Decode(r)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: CL symbol: %v", ErrCorrupt, err)
		}
		switch {
		case sym <= 15:
			lengths[i] = uint8(sym)
			i++
		case sym == 16:
			if i == 0 {
				return nil, nil, fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
			}
			n, err := r.ReadBits(2)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: repeat extra", ErrCorrupt)
			}
			rep := int(n) + 3
			if i+rep > len(lengths) {
				return nil, nil, fmt.Errorf("%w: repeat overruns table", ErrCorrupt)
			}
			v := lengths[i-1]
			for j := 0; j < rep; j++ {
				lengths[i] = v
				i++
			}
		case sym == 17:
			n, err := r.ReadBits(3)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: zero-run extra", ErrCorrupt)
			}
			rep := int(n) + 3
			if i+rep > len(lengths) {
				return nil, nil, fmt.Errorf("%w: zero run overruns table", ErrCorrupt)
			}
			i += rep
		case sym == 18:
			n, err := r.ReadBits(7)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: zero-run extra", ErrCorrupt)
			}
			rep := int(n) + 11
			if i+rep > len(lengths) {
				return nil, nil, fmt.Errorf("%w: zero run overruns table", ErrCorrupt)
			}
			i += rep
		default:
			return nil, nil, fmt.Errorf("%w: CL symbol %d", ErrCorrupt, sym)
		}
	}
	llLengths := lengths[:nlit]
	dLengths := lengths[nlit:]
	if llLengths[EndOfBlock] == 0 {
		return nil, nil, fmt.Errorf("%w: no end-of-block code", ErrCorrupt)
	}
	ll, err = newRefDecoder(llLengths, huffman.DefaultPrimaryBits)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: litlen table: %v", ErrCorrupt, err)
	}
	d, err = newRefDecoder(dLengths, huffman.DefaultPrimaryBits)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: dist table: %v", ErrCorrupt, err)
	}
	return ll, d, nil
}

// refInflateBlock decodes symbols until end-of-block.
func refInflateBlock(r *refReader, out []byte, maxOut int, ll, d *refDecoder) ([]byte, error) {
	for {
		sym, err := ll.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("%w: litlen: %v", ErrCorrupt, err)
		}
		if sym < 256 {
			if len(out)+1 > maxOut {
				return nil, ErrTooLarge
			}
			out = append(out, byte(sym))
			continue
		}
		if sym == EndOfBlock {
			return out, nil
		}
		base, nb, ok := LengthFromSymbol(sym)
		if !ok {
			return nil, fmt.Errorf("%w: length symbol %d", ErrCorrupt, sym)
		}
		length := base
		if nb > 0 {
			ex, err := r.ReadBits(uint(nb))
			if err != nil {
				return nil, fmt.Errorf("%w: length extra", ErrCorrupt)
			}
			length += int(ex)
		}
		dsym, err := d.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("%w: dist: %v", ErrCorrupt, err)
		}
		dbase, dnb, ok := DistFromSymbol(dsym)
		if !ok {
			return nil, fmt.Errorf("%w: dist symbol %d", ErrCorrupt, dsym)
		}
		dist := dbase
		if dnb > 0 {
			ex, err := r.ReadBits(uint(dnb))
			if err != nil {
				return nil, fmt.Errorf("%w: dist extra", ErrCorrupt)
			}
			dist += int(ex)
		}
		if dist > len(out) {
			return nil, fmt.Errorf("%w: distance %d past start", ErrCorrupt, dist)
		}
		if len(out)+length > maxOut {
			return nil, ErrTooLarge
		}
		start := len(out) - dist
		for j := 0; j < length; j++ {
			out = append(out, out[start+j])
		}
	}
}

// refDecoder decodes canonical Huffman codes from LSB-first bit streams using
// a two-level table: a primary table of primaryBits entries resolves all
// short codes in one lookup, and longer codes chain to per-prefix
// sub-tables. This mirrors both zlib's inflate tables and the parallel
// lookup structures used in hardware decoders.
type refDecoder struct {
	primaryBits uint
	maxLen      uint8
	primary     []refDecodeEntry
	sub         []refDecodeEntry
	numSyms     int
}

// refDecodeEntry packs either a direct symbol hit or a sub-table link.
//
//	sym >= 0:  symbol, nbits = code length
//	sym == -1: link, off/index into sub, nbits = sub-table bits
//	sym == -2: invalid (unassigned code space)
type refDecodeEntry struct {
	sym   int32
	nbits uint8
	off   uint32
}

// newRefDecoder builds a decoder for the canonical code defined by lengths.
// Length-zero symbols have no code. The code may be incomplete (Kraft sum
// below capacity); unassigned code space decodes to huffman.ErrInvalidCode.
func newRefDecoder(lengths []uint8, primaryBits uint) (*refDecoder, error) {
	if primaryBits < 1 || primaryBits > 15 {
		return nil, fmt.Errorf("huffman: primaryBits %d out of range", primaryBits)
	}
	maxLen := uint8(0)
	n := 0
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
		if l > 0 {
			n++
		}
	}
	if maxLen > huffman.MaxBitsDeflate {
		return nil, fmt.Errorf("huffman: code length %d exceeds %d", maxLen, huffman.MaxBitsDeflate)
	}
	d := &refDecoder{primaryBits: primaryBits, maxLen: maxLen, numSyms: n}
	d.primary = make([]refDecodeEntry, 1<<primaryBits)
	for i := range d.primary {
		d.primary[i].sym = -2
	}
	if maxLen == 0 {
		return d, nil
	}
	if k := huffman.KraftSum(lengths, int(maxLen)); k > 1<<maxLen {
		return nil, fmt.Errorf("huffman: over-subscribed code")
	}

	// Canonical code assignment, identical to NewEncoder.
	counts := make([]uint32, maxLen+1)
	for _, l := range lengths {
		counts[l]++
	}
	counts[0] = 0
	next := make([]uint32, maxLen+2)
	code := uint32(0)
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + counts[l-1]) << 1
		next[l] = code
	}

	// Pre-create sub-tables for every primary prefix that has long codes.
	subBits := uint(0)
	if uint(maxLen) > primaryBits {
		subBits = uint(maxLen) - primaryBits
	}
	subIndex := make(map[uint32]uint32) // primary prefix -> sub offset

	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		c := next[l]
		next[l]++
		rev := bitio.Reverse(c, uint(l))
		if uint(l) <= primaryBits {
			// Fill every primary slot whose low l bits equal rev.
			step := uint32(1) << l
			for i := rev; i < uint32(len(d.primary)); i += step {
				d.primary[i] = refDecodeEntry{sym: int32(sym), nbits: l}
			}
			continue
		}
		// Long code: low primaryBits select the link; remaining high bits
		// index the sub-table.
		prefix := rev & ((1 << primaryBits) - 1)
		off, ok := subIndex[prefix]
		if !ok {
			off = uint32(len(d.sub))
			subIndex[prefix] = off
			for i := 0; i < 1<<subBits; i++ {
				d.sub = append(d.sub, refDecodeEntry{sym: -2})
			}
			d.primary[prefix] = refDecodeEntry{sym: -1, nbits: uint8(subBits), off: off}
		}
		high := rev >> primaryBits
		extra := uint(l) - primaryBits
		step := uint32(1) << extra
		for i := high; i < 1<<subBits; i += step {
			d.sub[off+i] = refDecodeEntry{sym: int32(sym), nbits: l}
		}
	}
	return d, nil
}

// Decode reads one symbol. It consumes exactly the code's length in bits.
func (d *refDecoder) Decode(src *refReader) (int, error) {
	v, avail := src.PeekBits(d.primaryBits)
	e := d.primary[v]
	if e.sym >= 0 {
		if uint(e.nbits) > avail {
			return 0, huffman.ErrInvalidCode // truncated stream
		}
		if err := src.SkipBits(uint(e.nbits)); err != nil {
			return 0, err
		}
		return int(e.sym), nil
	}
	if e.sym == -2 {
		return 0, huffman.ErrInvalidCode
	}
	// Sub-table path.
	total := d.primaryBits + uint(e.nbits)
	v2, avail2 := src.PeekBits(total)
	sub := d.sub[e.off+uint32(v2>>d.primaryBits)]
	if sub.sym < 0 {
		return 0, huffman.ErrInvalidCode
	}
	if uint(sub.nbits) > avail2 {
		return 0, huffman.ErrInvalidCode
	}
	if err := src.SkipBits(uint(sub.nbits)); err != nil {
		return 0, err
	}
	return int(sub.sym), nil
}

// refReader is bitio.Reader as it stood (byte-at-a-time fill): it consumes bits LSB-first from a byte slice.
type refReader struct {
	data []byte
	pos  int    // next byte index to load
	acc  uint64 // bit accumulator
	nacc uint   // valid bits in acc
}

// newRefReader returns a reader over data. The Reader does not copy data.
func newRefReader(data []byte) *refReader {
	return &refReader{data: data}
}

// Reset re-points the Reader at data and rewinds it.
func (r *refReader) Reset(data []byte) {
	r.data = data
	r.pos = 0
	r.acc = 0
	r.nacc = 0
}

// fill loads bytes into the accumulator until it holds at least want bits
// or input is exhausted.
func (r *refReader) fill(want uint) {
	for r.nacc < want && r.pos < len(r.data) {
		r.acc |= uint64(r.data[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

// ReadBits reads n bits (n <= 48) and returns them as the low bits of the
// result. It returns bitio.ErrUnexpectedEOF if fewer than n bits remain.
func (r *refReader) ReadBits(n uint) (uint64, error) {
	if n > 48 {
		panic("bitio: ReadBits count out of range")
	}
	r.fill(n)
	if r.nacc < n {
		return 0, bitio.ErrUnexpectedEOF
	}
	v := r.acc & ((1 << n) - 1)
	r.acc >>= n
	r.nacc -= n
	return v, nil
}

// PeekBits returns up to n bits without consuming them. If fewer than n
// bits remain, the missing high bits are zero; ok reports how many bits
// were actually available. Decoders use this for table lookups near EOF.
func (r *refReader) PeekBits(n uint) (v uint64, avail uint) {
	if n > 48 {
		panic("bitio: PeekBits count out of range")
	}
	r.fill(n)
	avail = r.nacc
	if avail > n {
		avail = n
	}
	return r.acc & ((1 << n) - 1), avail
}

// SkipBits discards n bits. It returns bitio.ErrUnexpectedEOF if fewer remain.
func (r *refReader) SkipBits(n uint) error {
	for n > 48 {
		if _, err := r.ReadBits(48); err != nil {
			return err
		}
		n -= 48
	}
	_, err := r.ReadBits(n)
	return err
}

// ReadBool reads a single bit.
func (r *refReader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// AlignByte discards bits up to the next byte boundary and returns the
// number discarded (0..7).
func (r *refReader) AlignByte() uint {
	drop := r.nacc % 8
	r.acc >>= drop
	r.nacc -= drop
	return drop
}

// ReadBytes copies n whole bytes into p's first n entries after aligning is
// the caller's responsibility; the stream must already be byte-aligned.
func (r *refReader) ReadBytes(p []byte) error {
	if r.nacc%8 != 0 {
		panic("bitio: ReadBytes on unaligned stream")
	}
	for i := range p {
		if r.nacc >= 8 {
			p[i] = byte(r.acc)
			r.acc >>= 8
			r.nacc -= 8
			continue
		}
		if r.pos >= len(r.data) {
			return fmt.Errorf("%w: need %d more bytes", bitio.ErrUnexpectedEOF, len(p)-i)
		}
		p[i] = r.data[r.pos]
		r.pos++
	}
	return nil
}

// BitsRemaining reports the number of unread bits.
func (r *refReader) BitsRemaining() int {
	return (len(r.data)-r.pos)*8 + int(r.nacc)
}

// BitsConsumed reports the number of bits consumed so far.
func (r *refReader) BitsConsumed() int {
	return len(r.data)*8 - r.BitsRemaining()
}
