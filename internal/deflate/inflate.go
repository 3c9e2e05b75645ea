package deflate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"nxzip/internal/bitio"
	"nxzip/internal/checksum"
	"nxzip/internal/freelist"
	"nxzip/internal/huffman"
	"nxzip/internal/lz77"
)

// inflatePasses counts decodes of DEFLATE streams. It exists so tests can
// assert that a code path performs exactly one inflate pass per gzip member
// (no decode-twice regressions on the streaming Reader).
var inflatePasses atomic.Int64

// InflatePasses returns the number of inflate passes performed by this
// package since process start.
func InflatePasses() int64 { return inflatePasses.Load() }

// Decompression errors.
var (
	ErrCorrupt  = errors.New("deflate: corrupt stream")
	ErrTooLarge = errors.New("deflate: output exceeds limit")

	// The two corruptions that more input cannot cure; a Session reports
	// them at once instead of waiting for the rest of the block.
	errStoredLen    = fmt.Errorf("%w: stored LEN/NLEN mismatch", ErrCorrupt)
	errReservedType = fmt.Errorf("%w: reserved block type 3", ErrCorrupt)

	errLitLenCode = fmt.Errorf("%w: invalid literal/length code", ErrCorrupt)
	errDistCode   = fmt.Errorf("%w: invalid distance code", ErrCorrupt)
	errDistance   = fmt.Errorf("%w: distance past start of output", ErrCorrupt)

	// What a decode that ran out of input reports. A Session meets one at
	// the end of every Feed that stops inside a block, and retries with
	// more input: they are values, so that costs no allocation.
	errBlockHeader   = fmt.Errorf("%w: missing block header", ErrCorrupt)
	errStoredHeader  = fmt.Errorf("%w: stored length", ErrCorrupt)
	errStoredPayload = fmt.Errorf("%w: stored payload truncated", ErrCorrupt)
	errDynamicHeader = fmt.Errorf("%w: HLIT/HDIST/HCLEN", ErrCorrupt)
	errCLLengths     = fmt.Errorf("%w: CL lengths", ErrCorrupt)
	errRepeatExtra   = fmt.Errorf("%w: repeat extra", ErrCorrupt)
	errLengthExtra   = fmt.Errorf("%w: length extra", ErrCorrupt)
	errDistExtra     = fmt.Errorf("%w: dist extra", ErrCorrupt)
)

// InflateOptions bounds decompression.
type InflateOptions struct {
	// MaxOutput caps the decompressed size (0 = 1 GiB default). The
	// accelerator enforces the same bound via the output DDE length; a
	// too-small target buffer yields a CC error, not unbounded growth.
	MaxOutput int
	// Dst, when non-nil, supplies the output backing: decompression
	// appends to Dst[:0], reusing its capacity — the software analogue of
	// the accelerator DMA-ing output into the caller's target DDE. The
	// caller must not alias Dst with the compressed source. The decoder
	// copies matches in 8-byte words, so up to 7 bytes of capacity past the
	// returned length are scratch; nothing past cap(Dst) or MaxOutput is
	// ever written — fence a window of a shared buffer with either.
	Dst []byte
	// Follower, when non-nil, is handed the output as it becomes final, a
	// stripe at a time, and the framed decodes check their trailer
	// against its sums; the caller Releases it once the decode returns.
	Follower *checksum.Follower
}

const (
	defaultMaxOutput = 1 << 30

	// The fast loop's margins. One refill is one 8-byte load and yields at
	// least 56 bits, more than the 48 a longest symbol pair (15+5 length,
	// 15+13 distance) consumes; one iteration emits at most a 258-byte
	// match, copied in 8-byte words that may overshoot by 7.
	fastInMargin  = 8
	fastOutMargin = lz77.MaxMatch + 8

	// followStripe is how much output a decode with a Follower produces
	// between publishes: the fast loop stops at each multiple of it.
	followStripe = 64 << 10
)

// The RFC 1951 static tables, shared by every pass (read-only once built).
var fixedLitLen, fixedDist = func() (ll, d huffman.Decoder) {
	if err := errors.Join(ll.Init(FixedLitLenLengths(), huffman.DefaultPrimaryBits, litLenValues[:]),
		d.Init(FixedDistLengths(), huffman.DefaultPrimaryBits, distValues[:])); err != nil {
		panic(err) // the fixed code is a constant
	}
	return
}()

// inflater is the state of one decode pass: the bit reader, the output
// cursor, and the dynamic-block tables and code-length scratch, whose
// storage is reused from block to block and — through inflaterPool — from
// pass to pass, so a steady-state inflate into opts.Dst allocates nothing.
// The pool is a free list the collector leaves alone: a pass that follows
// two collections finds its tables where the last one left them.
type inflater struct {
	r      bitio.Reader
	out    []byte // output backing, filled up to n
	n      int    // plaintext bytes produced so far
	maxOut int

	fol   *checksum.Follower // nil but in a DecompressTail given one
	pubAt int                // fol's next publish: once n reaches it

	litLen, dist, codeLen huffman.Decoder
	lengths               [NumLitLen + NumDist]uint8
}

var inflaterPool = freelist.New(func() *inflater { return new(inflater) })

// Decompress inflates a raw DEFLATE stream.
func Decompress(src []byte, opts InflateOptions) ([]byte, error) {
	out, _, err := DecompressTail(src, opts)
	return out, err
}

// DecompressTail inflates a raw DEFLATE stream into opts.Dst in one pooled
// pass and also returns the number of whole bytes of src the stream
// occupied (it may be followed by a trailer).
func DecompressTail(src []byte, opts InflateOptions) (out []byte, consumed int, err error) {
	inflatePasses.Add(1)
	in := inflaterPool.Get()
	in.r.Reset(src)
	in.out, in.n = opts.Dst[:cap(opts.Dst)], 0
	if in.maxOut = opts.MaxOutput; in.maxOut <= 0 {
		in.maxOut = defaultMaxOutput
	}
	in.fol, in.pubAt = opts.Follower, followStripe
	for final := false; !final && err == nil; {
		final, err = in.nextBlock()
	}
	if err == nil {
		in.r.AlignByte()
		out, consumed = in.out[:in.n], in.r.BitsConsumed()/8
	}
	in.r.Reset(nil) // drop the src, output and follower references before pooling
	in.out, in.fol = nil, nil
	inflaterPool.Put(in)
	return out, consumed, err
}

// nextBlock decodes one block, header to end-of-block.
func (in *inflater) nextBlock() (final bool, err error) {
	hdr, err := in.r.ReadBits(3)
	if err != nil {
		return false, errBlockHeader
	}
	switch hdr >> 1 {
	case 0:
		if err = in.stored(); err == nil && in.fol != nil {
			in.publish()
		}
	case 1:
		err = in.block(&fixedLitLen, &fixedDist)
	case 2:
		if err = in.readDynamicHeader(&in.r); err == nil {
			err = in.block(&in.litLen, &in.dist)
		}
	default:
		err = errReservedType
	}
	return hdr&1 != 0, err
}

// stored copies one stored block's payload straight from the input.
func (in *inflater) stored() error {
	in.r.AlignByte()
	v, err := in.r.ReadBits(32)
	if err != nil {
		return errStoredHeader
	}
	if uint16(v) != ^uint16(v>>16) {
		return errStoredLen
	}
	lenv := int(uint16(v))
	if in.n+lenv > in.maxOut {
		return ErrTooLarge
	}
	in.grow(lenv)
	if in.r.ReadBytes(in.out[in.n:in.n+lenv]) != nil {
		return errStoredPayload
	}
	in.n += lenv
	return nil
}

// grow makes sure k more bytes fit (the caller has checked them against
// maxOut). A caller-supplied backing that is large enough is never left;
// when it is not, the new one doubles and leaves the fast loop its margin —
// budget permitting. The size follows the output only, never the unread
// input (which, for a first member, is the rest of a multi-member stream):
// a pass allocates and clears O(its own output) bytes, whatever follows it.
func (in *inflater) grow(k int) {
	if in.n+k <= len(in.out) {
		return
	}
	want := max(2*len(in.out), in.n+k+fastOutMargin)
	buf := make([]byte, min(want, in.maxOut))
	copy(buf, in.out[:in.n])
	in.out = buf
}

// readDynamicHeader parses HLIT/HDIST/HCLEN and the two code tables into
// in.litLen and in.dist.
func (in *inflater) readDynamicHeader(r *bitio.Reader) error {
	v, err := r.ReadBits(14)
	if err != nil {
		return errDynamicHeader
	}
	nlit, ndist, ncl := int(v&31)+257, int(v>>5&31)+1, int(v>>10)+4
	if nlit > NumLitLen {
		return fmt.Errorf("%w: HLIT %d too large", ErrCorrupt, nlit)
	}
	if ndist > NumDist {
		return fmt.Errorf("%w: HDIST %d too large", ErrCorrupt, ndist)
	}
	var clLengths [NumCodeLength]uint8
	for i := 0; i < ncl; i++ {
		v, err := r.ReadBits(3)
		if err != nil {
			return errCLLengths
		}
		clLengths[clOrder[i]] = uint8(v)
	}
	if err := in.codeLen.Init(clLengths[:], maxCLCodeLen, nil); err != nil {
		return fmt.Errorf("%w: CL table: %v", ErrCorrupt, err)
	}
	lengths := in.lengths[:nlit+ndist]
	clear(lengths)
	for i := 0; i < len(lengths); {
		sym, err := in.codeLen.Decode(r)
		if err != nil {
			return fmt.Errorf("%w: CL symbol: %v", ErrCorrupt, err)
		}
		if sym <= 15 {
			lengths[i] = uint8(sym)
			i++
			continue
		}
		// 16 repeats the previous length 3-6 times; 17 and 18 run 3-10 and
		// 11-138 zeros.
		nbits, base, fill := uint(2), 3, uint8(0)
		switch sym {
		case 16:
			if i == 0 {
				return fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
			}
			fill = lengths[i-1]
		case 17:
			nbits = 3
		case 18:
			nbits, base = 7, 11
		}
		n, err := r.ReadBits(nbits)
		if err != nil {
			return errRepeatExtra
		}
		rep := base + int(n)
		if i+rep > len(lengths) {
			return fmt.Errorf("%w: repeat overruns table", ErrCorrupt)
		}
		for ; rep > 0; rep-- {
			lengths[i] = fill
			i++
		}
	}
	if lengths[EndOfBlock] == 0 {
		return fmt.Errorf("%w: no end-of-block code", ErrCorrupt)
	}
	if err := in.litLen.Init(lengths[:nlit], huffman.DefaultPrimaryBits, litLenValues[:]); err != nil {
		return fmt.Errorf("%w: litlen table: %v", ErrCorrupt, err)
	}
	if err := in.dist.Init(lengths[nlit:], huffman.DefaultPrimaryBits, distValues[:]); err != nil {
		return fmt.Errorf("%w: dist table: %v", ErrCorrupt, err)
	}
	return nil
}

// block decodes symbols up to and including end-of-block: the fast loop
// while its margins hold, one careful symbol at a time where they do not
// (the last bytes of input, the last of the capacity or the budget).
func (in *inflater) block(litLen, dist *huffman.Decoder) error {
	for {
		limit := min(in.maxOut, len(in.out))
		fastLimit := limit - fastOutMargin
		if in.fol != nil {
			in.publish()
			fastLimit = min(fastLimit, in.pubAt)
		}
		// Two margins of unread bits: up to 63 of them are already in the
		// Reader's accumulator, not ahead of its byte position.
		if in.n+fastOutMargin <= limit && in.r.BitsRemaining() >= 2*8*fastInMargin {
			if eob, err := in.fast(litLen, dist, fastLimit); eob || err != nil {
				return err
			}
		}
		if eob, err := in.careful(litLen, dist); eob || err != nil {
			return err
		}
	}
}

// publish hands the follower the output so far once it has reached the
// next stripe. Every byte below n is final: the decode writes only at n
// and past it, and grow copies the bytes below n unchanged, so what the
// follower reads in an older backing stays valid.
func (in *inflater) publish() {
	if in.n >= in.pubAt {
		in.fol.Publish(in.out[:in.n])
		in.pubAt = in.n - in.n%followStripe + followStripe
	}
}

// widen[d] is the smallest multiple of d that is at least 8: a match at
// distance d < 8 repeats with that period too, so once its first 8 bytes
// are in place the rest can be copied in words from that far back.
var widen = [8]int{0, 8, 8, 9, 8, 10, 12, 14}

// fast decodes symbols while at least fastInMargin bytes of input are
// unread and n is at most limit (fastOutMargin short of both the output
// backing and maxOut), so that no symbol needs an end-of-input, capacity or
// budget check of its own. The bit buffer lives in locals — bb holds nb
// valid bits, the byte after them is data[pos] — and goes back to the
// Reader on the way out.
func (in *inflater) fast(litLen, dist *huffman.Decoder, limit int) (eob bool, err error) {
	data, pos, bb, nb := in.r.State()
	out, n := in.out, in.n
	llTab, llBits := litLen.Table()
	dTab, dBits := dist.Table()
	llMask, dMask := uint64(1)<<llBits-1, uint64(1)<<dBits-1
loop:
	for pos+fastInMargin <= len(data) && n <= limit {
		// Refill to 56..63 bits: bits above nb are the same bytes OR-ed in
		// again, so only whole bytes are counted as taken.
		bb |= binary.LittleEndian.Uint64(data[pos:]) << nb
		pos += int(63-nb) >> 3
		nb |= 56

		e := llTab[bb&llMask]
	dispatch:
		if e.IsLiteral() {
			// Up to three literals on one refill (3 x 15 <= 56 bits);
			// whatever follows them gets a full buffer of its own.
			for k := 0; ; k++ {
				bb >>= e.Len()
				nb -= e.Len()
				out[n] = byte(e.Sym())
				n++
				if e = llTab[bb&llMask]; k == 2 || !e.IsLiteral() {
					continue loop
				}
			}
		}
		if e.IsSpecial() {
			switch {
			case e.IsLink():
				e = e.Sub(llTab, bb>>llBits)
				goto dispatch
			case e.Sym() == EndOfBlock:
				bb >>= e.Len()
				nb -= e.Len()
				eob = true
			default:
				err = errLitLenCode
			}
			break loop
		}
		bb >>= e.Len()
		length := e.Base() + int(bb&(1<<e.Extra()-1))
		bb >>= e.Extra()
		nb -= e.Len() + e.Extra()

		de := dTab[bb&dMask]
		if de.IsSpecial() {
			if de.IsLink() {
				de = de.Sub(dTab, bb>>dBits)
			}
			if de.IsSpecial() {
				err = errDistCode
				break loop
			}
		}
		bb >>= de.Len()
		d := de.Base() + int(bb&(1<<de.Extra()-1))
		bb >>= de.Extra()
		nb -= de.Len() + de.Extra()
		if d > n {
			err = errDistance
			break loop
		}
		i, back := 0, d
		if d < 8 {
			// Spread the d-byte pattern over one word (shifts of 64 or
			// more contribute nothing), then carry on from widen[d] back.
			p := binary.LittleEndian.Uint64(out[n-d:]) & (1<<(8*uint(d)) - 1)
			p |= p << (8 * uint(d))
			p |= p << (16 * uint(d))
			p |= p << (32 * uint(d))
			binary.LittleEndian.PutUint64(out[n:], p)
			i, back = 8, widen[d]
		}
		for ; i < length; i += 8 {
			binary.LittleEndian.PutUint64(out[n+i:], binary.LittleEndian.Uint64(out[n+i-back:]))
		}
		n += length
	}
	in.r.SetState(pos, bb, nb)
	in.n = n
	return eob, err
}

// careful decodes one symbol with every check the fast loop's margins
// stand in for: truncated input at each read, the budget and the capacity
// before each store. The order of the checks is the error a caller sees.
func (in *inflater) careful(litLen, dist *huffman.Decoder) (eob bool, err error) {
	e, err := litLen.Lookup(&in.r)
	if err != nil {
		return false, errLitLenCode
	}
	length, d := 1, 0
	if !e.IsLiteral() {
		if e.IsSpecial() {
			if e.Sym() == EndOfBlock {
				return true, nil
			}
			return false, errLitLenCode
		}
		x, err := in.r.ReadBits(e.Extra())
		if err != nil {
			return false, errLengthExtra
		}
		length = e.Base() + int(x)
		de, err := dist.Lookup(&in.r)
		if err != nil || de.IsSpecial() {
			return false, errDistCode
		}
		if x, err = in.r.ReadBits(de.Extra()); err != nil {
			return false, errDistExtra
		}
		if d = de.Base() + int(x); d > in.n {
			return false, errDistance
		}
	}
	if in.n+length > in.maxOut {
		return false, ErrTooLarge
	}
	in.grow(length)
	out := in.out[in.n : in.n+length]
	if d == 0 {
		out[0] = byte(e.Sym())
	} else {
		for i, b := range in.out[in.n-d:][:length] { // byte order: the ranges may overlap
			out[i] = b
		}
	}
	in.n += length
	return false, nil
}
