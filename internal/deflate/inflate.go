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
	// Key files the pass's pooled decoder state: passes under one key
	// reuse the tables the last of them left, and callers decoding side
	// by side under keys of their own each get back their own.
	Key uint64
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

	// The primary index widths of every decode table an inflater reads,
	// fixed and dynamic. A 10-bit literal/length root resolves every code
	// of up to 10 bits in one load, where 9 sent the long literal codes of
	// high-entropy blocks through a sub-table link.
	litLenTableBits = 10
	distTableBits   = huffman.DefaultPrimaryBits
)

// The RFC 1951 static tables, shared by every pass (read-only once built).
var fixedLitLen, fixedDist = func() (ll, d huffman.Decoder) {
	if err := errors.Join(ll.Init(FixedLitLenLengths(), litLenTableBits, litLenValues[:]),
		d.Init(FixedDistLengths(), distTableBits, distValues[:])); err != nil {
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
	in := inflaterPool.GetFor(opts.Key)
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
	inflaterPool.PutFor(opts.Key, in)
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
	if err := in.litLen.Init(lengths[:nlit], litLenTableBits, litLenValues[:]); err != nil {
		return fmt.Errorf("%w: litlen table: %v", ErrCorrupt, err)
	}
	if err := in.dist.Init(lengths[nlit:], distTableBits, distValues[:]); err != nil {
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

// refill tops the bit buffer up to 56..63 valid bits from data[pos:], which
// must hold 8 bytes. Bits above nb are the same bytes OR-ed in again, so
// only whole bytes are counted as taken.
func refill(data []byte, pos int, bb uint64, nb uint) (int, uint64, uint) {
	return pos + int(63-nb)>>3, bb | binary.LittleEndian.Uint64(data[pos:])<<nb, nb | 56
}

// fast decodes symbols while at least fastInMargin bytes of input are
// unread and n is at most limit (fastOutMargin short of both the output
// backing and maxOut), so that no symbol needs an end-of-input, capacity or
// budget check of its own. The bit buffer lives in locals — bb holds nb
// valid bits, the byte after them is data[pos] — and goes back to the
// Reader on the way out.
//
// At the top of every iteration nb >= 56 and e is the next symbol's
// literal/length entry, looked up with at least 15 valid bits. That entry
// survives a refill: a refill ORs bits in only at and above nb, and an
// entry whose code is at most nb bits long depends on valid bits alone (a
// primary index wider than the code repeats the entry over every value of
// the bits past it; a link is resolved only at the top, from a full
// buffer). So a literal run refills and carries on with the entry it
// stopped at, and a match looks up the next symbol before its copy, which
// does not depend on it; no symbol is looked up twice.
func (in *inflater) fast(litLen, dist *huffman.Decoder, limit int) (eob bool, err error) {
	data, pos, bb, nb := in.r.State()
	out, n := in.out, in.n
	// The primary parts are read as arrays, so a masked index needs no
	// bounds check; links index the whole tables.
	llTab, llBits := litLen.Table()
	dTab, dBits := dist.Table()
	if llBits != litLenTableBits || dBits != distTableBits {
		panic("deflate: decode table built at another width")
	}
	llPrim := (*[1 << litLenTableBits]huffman.Entry)(llTab)
	dPrim := (*[1 << distTableBits]huffman.Entry)(dTab)
	const llMask, dMask = 1<<litLenTableBits - 1, 1<<distTableBits - 1
	if pos+fastInMargin > len(data) || n > limit {
		return false, nil
	}
	pos, bb, nb = refill(data, pos, bb, nb)
	e := llPrim[bb&llMask]
	for {
		if e.IsLiteral() {
			// Two literals, and a third while nb >= 30: at most 15 bits
			// each, so the entry after them is looked up with nb >= 15.
			out[n] = byte(e.Sym())
			n++
			bb >>= e.Len()
			nb -= e.Len()
			if e = llPrim[bb&llMask]; e.IsLiteral() {
				out[n] = byte(e.Sym())
				n++
				bb >>= e.Len()
				nb -= e.Len()
				if e = llPrim[bb&llMask]; e.IsLiteral() && nb >= 30 {
					out[n] = byte(e.Sym())
					n++
					bb >>= e.Len()
					nb -= e.Len()
					e = llPrim[bb&llMask]
				}
			}
			if pos+fastInMargin > len(data) || n > limit {
				break
			}
			pos, bb, nb = refill(data, pos, bb, nb)
			continue
		}
		if e.IsSpecial() {
			if e.IsLink() {
				e = e.Sub(llTab, bb>>llBits) // nothing consumed: nb is still >= 56
				continue
			}
			if e.Sym() == EndOfBlock {
				bb >>= e.Len()
				nb -= e.Len()
				eob = true
			} else {
				err = errLitLenCode
			}
			break
		}
		// Code and extra bits leave bb in one shift; the extra bits are
		// read from the copy taken before it.
		b := bb
		bb >>= e.Len() + e.Extra()
		nb -= e.Len() + e.Extra()
		length := e.Base() + int(b>>e.Len()&(1<<e.Extra()-1))

		de := dPrim[bb&dMask]
		if de.IsSpecial() {
			if de.IsLink() {
				de = de.Sub(dTab, bb>>dBits)
			}
			if de.IsSpecial() {
				err = errDistCode
				break
			}
		}
		b = bb
		bb >>= de.Len() + de.Extra()
		nb -= de.Len() + de.Extra()
		d := de.Base() + int(b>>de.Len()&(1<<de.Extra()-1))
		if d > n {
			err = errDistance
			break
		}
		more := pos+fastInMargin <= len(data)
		if more {
			pos, bb, nb = refill(data, pos, bb, nb)
			e = llPrim[bb&llMask]
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
		if !more || n > limit {
			break
		}
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
