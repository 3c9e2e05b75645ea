package deflate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"nxzip/internal/bitio"
	"nxzip/internal/huffman"
	"nxzip/internal/lz77"
)

// BlockMode selects how a DEFLATE block is encoded.
type BlockMode int

const (
	// ModeAuto picks the cheapest of stored/fixed/dynamic, like zlib.
	ModeAuto BlockMode = iota
	// ModeFixed forces the static Huffman table (the accelerator's FHT
	// function code).
	ModeFixed
	// ModeDynamic forces a per-block generated table (the accelerator's
	// DHT-generate function code).
	ModeDynamic
	// ModeStored forces an uncompressed block.
	ModeStored
)

func (m BlockMode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeFixed:
		return "fht"
	case ModeDynamic:
		return "dht"
	case ModeStored:
		return "stored"
	}
	return fmt.Sprintf("BlockMode(%d)", int(m))
}

// maxStoredBlock is the largest LEN a stored block can carry (RFC 1951).
const maxStoredBlock = 65535

// BlockWriter serializes token streams into DEFLATE blocks on a bit
// stream. It is the shared back end of the software codec and the
// accelerator model's Huffman-encode stage. Everything a block needs
// beyond the tokens — symbol counts, the Huffman builder and a generated
// table with its header — is scratch in the struct, so a reused
// BlockWriter writes blocks without allocating; the fixed Huffman table
// is process-wide (RFC 1951 defines it, immutable after construction).
type BlockWriter struct {
	w        *bitio.Writer
	wroteEnd bool
	litFreq  [NumLitLen]int64
	distFreq [NumDist]int64
	builder  huffman.Builder
	litLen   [NumLitLen]uint8 // the generated table's lengths
	dist     [NumDist]uint8
	gen      dynTables // and its encodable form
}

// emitCode is what a match writes for a length or a distance symbol: the
// Huffman code and, above it, the extra bits — a length's merged in (the
// table is indexed by length), a distance symbol's left for the token.
type emitCode struct {
	bits uint32
	n    uint8 // bits written: code plus extra
	len  uint8 // the code alone
}

// blockTables is one Huffman table pair in the form the emit loop reads.
type blockTables struct {
	lit    [288]huffman.Code // by literal/length symbol; the fixed table codes 286 and 287 too
	length [lz77.MaxMatch - lz77.MinMatch + 1]emitCode
	dist   [NumDist]emitCode
}

// init assigns canonical codes to the lengths and merges the extra bits in.
func (tb *blockTables) init(litLen, dist []uint8) error {
	clear(tb.lit[:])
	if err := huffman.AssignCodes(tb.lit[:], litLen); err != nil {
		return err
	}
	var dc [32]huffman.Code // the fixed table codes 30 and 31 too
	if err := huffman.AssignCodes(dc[:], dist); err != nil {
		return err
	}
	for l := range tb.length {
		sym, extra, nb := LengthSymbol(l + lz77.MinMatch)
		c := tb.lit[sym]
		tb.length[l] = emitCode{bits: uint32(c.Bits) | extra<<c.Len, n: c.Len + nb, len: c.Len}
	}
	for s := range tb.dist {
		tb.dist[s] = emitCode{bits: uint32(dc[s].Bits), n: dc[s].Len + distExtra[s], len: dc[s].Len}
	}
	return nil
}

// dynTables is a dynamic table in encodable form: the codes, the
// serialized header, and whether every symbol has a code — a block coded
// with a complete table needs no coverage check, so no counting pass.
type dynTables struct {
	blockTables
	plan     headerPlan
	complete bool
}

func (d *dynTables) init(b *huffman.Builder, litLen, dist []uint8) error {
	litLen, dist = trim(litLen, 257), trim(dist, 1)
	if len(litLen) > NumLitLen || len(dist) > NumDist {
		return fmt.Errorf("deflate: DHT alphabet too large (%d litlen, %d dist)", len(litLen), len(dist))
	}
	if err := d.plan.init(b, litLen, dist); err != nil {
		return err
	}
	if err := d.blockTables.init(litLen, dist); err != nil {
		return err
	}
	// Trimmed, so full-sized means the last symbols have codes too.
	d.complete = len(litLen) == NumLitLen && len(dist) == NumDist &&
		bytes.IndexByte(litLen, 0) < 0 && bytes.IndexByte(dist, 0) < 0
	return nil
}

var (
	fixedOnce sync.Once
	fixed     blockTables
)

// fixedTables returns the shared RFC 1951 static table. It is read-only
// after construction, so every BlockWriter (and every modeled engine)
// shares it.
func fixedTables() *blockTables {
	fixedOnce.Do(func() {
		if err := fixed.init(FixedLitLenLengths(), FixedDistLengths()); err != nil {
			panic("deflate: fixed table: " + err.Error())
		}
	})
	return &fixed
}

// NewBlockWriter wraps a bit writer.
func NewBlockWriter(w *bitio.Writer) *BlockWriter {
	return &BlockWriter{w: w}
}

// Reset retargets the BlockWriter at a (usually freshly reset) bit
// writer and clears the end-of-stream latch, so one BlockWriter can
// serialize many independent streams without reallocation.
func (bw *BlockWriter) Reset(w *bitio.Writer) {
	bw.w = w
	bw.wroteEnd = false
}

// countInto tallies token frequencies into the writer's scratch arrays
// and returns them as slices.
func (bw *BlockWriter) countInto(tokens []lz77.Token) ([]int64, []int64) {
	bw.litFreq, bw.distFreq = [NumLitLen]int64{}, [NumDist]int64{}
	CountFrequenciesInto(bw.litFreq[:], bw.distFreq[:], tokens)
	return bw.litFreq[:], bw.distFreq[:]
}

// generate builds the scratch table from symbol frequencies.
func (bw *BlockWriter) generate(litFreq, distFreq []int64) (*dynTables, error) {
	if err := buildLengths(&bw.builder, bw.litLen[:], bw.dist[:], litFreq, distFreq); err != nil {
		return nil, err
	}
	return &bw.gen, bw.gen.init(&bw.builder, bw.litLen[:], bw.dist[:])
}

// WriteBlock emits one block containing tokens (whose expansion is src,
// needed for the stored fallback). final marks BFINAL. A provided dht is
// used for ModeDynamic ("canned" tables); pass nil to generate one from
// the token frequencies.
func (bw *BlockWriter) WriteBlock(tokens []lz77.Token, src []byte, final bool, mode BlockMode, dht *DHT) error {
	if bw.wroteEnd {
		return fmt.Errorf("deflate: write after final block")
	}
	// A canned dht carries its codes and header plan from first use (see
	// DHT.prepared): only a freshly generated table pays construction, as
	// the hardware builds its DHT on-chip in DHT-generate mode. Symbols are
	// counted only for what reads the counts: ModeAuto's costing, a table
	// to generate, or a table that may lack a code this block uses (the
	// hardware raises a CC error for that case).
	var dyn *dynTables
	if mode == ModeDynamic || mode == ModeAuto {
		var err error
		if dht != nil {
			if dyn, err = dht.prepared(); err != nil {
				return err
			}
		}
		if mode == ModeAuto || dyn == nil || !dyn.complete {
			litFreq, distFreq := bw.countInto(tokens)
			if dyn == nil {
				if dyn, err = bw.generate(litFreq, distFreq); err != nil {
					return err
				}
			}
			if err := dyn.checkCoverage(litFreq, distFreq); err != nil {
				return err
			}
			if mode == ModeAuto {
				fixedBits := 3 + fixedTables().costBits(litFreq, distFreq)
				dynBits := 3 + int64(dyn.plan.bits) + dyn.costBits(litFreq, distFreq)
				storedBits := storedCost(len(src), bw.w.BitsWritten())
				switch {
				case storedBits <= fixedBits && storedBits <= dynBits:
					mode = ModeStored
				case fixedBits <= dynBits:
					mode = ModeFixed
				default:
					mode = ModeDynamic
				}
			}
		}
	}
	switch mode {
	case ModeStored:
		bw.writeStoredChain(src, final)
	case ModeFixed:
		bw.writeHeader(final, 1)
		bw.writeTokens(tokens, fixedTables())
	case ModeDynamic:
		bw.writeHeader(final, 2)
		dyn.plan.write(bw.w)
		bw.writeTokens(tokens, &dyn.blockTables)
	default:
		return fmt.Errorf("deflate: unknown block mode %d", mode)
	}
	if final {
		bw.wroteEnd = true
	}
	return nil
}

// checkCoverage verifies every used symbol has a code.
func (tb *blockTables) checkCoverage(litFreq, distFreq []int64) error {
	for sym, f := range litFreq {
		if f > 0 && tb.lit[sym].Len == 0 {
			return fmt.Errorf("deflate: DHT missing litlen code for symbol %d", sym)
		}
	}
	for sym, f := range distFreq {
		if f > 0 && tb.dist[sym].len == 0 {
			return fmt.Errorf("deflate: DHT missing dist code for symbol %d", sym)
		}
	}
	return nil
}

// costBits computes the token payload cost (including end-of-block) under
// the table, excluding the 3 header bits and any table header.
func (tb *blockTables) costBits(litFreq, distFreq []int64) int64 {
	var bits int64
	for sym, f := range litFreq {
		if f == 0 {
			continue
		}
		bits += f * int64(tb.lit[sym].Len)
		if sym > EndOfBlock {
			_, nb, _ := LengthFromSymbol(sym)
			bits += f * int64(nb)
		}
	}
	for sym, f := range distFreq {
		bits += f * int64(tb.dist[sym].n)
	}
	return bits
}

func (bw *BlockWriter) writeHeader(final bool, btype uint64) {
	bw.w.WriteBool(final)
	bw.w.WriteBits(btype, 2)
}

func (bw *BlockWriter) writeStored(src []byte, final bool) {
	bw.writeHeader(final, 0)
	bw.w.AlignByte()
	n := uint64(len(src))
	bw.w.WriteBits(n, 16)
	bw.w.WriteBits(^n, 16)
	bw.w.WriteBytes(src)
}

// writeStoredChain emits src as one or more stored blocks, splitting at
// the 64K-1 LEN limit.
func (bw *BlockWriter) writeStoredChain(src []byte, final bool) {
	off := 0
	for {
		end := off + maxStoredBlock
		last := false
		if end >= len(src) {
			end = len(src)
			last = final
		}
		bw.writeStored(src[off:end], last)
		off = end
		if off >= len(src) {
			return
		}
	}
}

// storedCost returns the exact bit cost of writeStoredChain starting at
// bit position pos.
func storedCost(n, pos int) int64 {
	start := pos
	off := 0
	for {
		chunk := n - off
		if chunk > maxStoredBlock {
			chunk = maxStoredBlock
		}
		pos += 3
		pos += (8 - pos%8) % 8
		pos += 32 + 8*chunk
		off += chunk
		if off >= n {
			return int64(pos - start)
		}
	}
}

// writeTokens emits the tokens and the end-of-block symbol. The bit
// writer's position is on loan for the whole loop (bitio.Writer.State): a
// token is one or two table reads merged into at most 48 bits, ORed in above
// the at most 7 pending ones, and flushed with one 8-byte store of which
// only the whole bytes are kept. Within 8 bytes of the buffer's capacity the
// token goes through WriteBits instead, which fills a caller-owned buffer
// to its last byte and grows out of it only when the output does not fit.
func (bw *BlockWriter) writeTokens(tokens []lz77.Token, tb *blockTables) {
	w := bw.w
	buf, acc, nacc := w.State()
	pos := len(buf)
	buf = buf[:cap(buf)]
	for i := 0; i <= len(tokens); i++ {
		var (
			bits uint64
			n    uint
		)
		switch {
		case i == len(tokens):
			bits, n = uint64(tb.lit[EndOfBlock].Bits), uint(tb.lit[EndOfBlock].Len)
		case !tokens[i].IsMatch():
			c := tb.lit[tokens[i].Literal()]
			bits, n = uint64(c.Bits), uint(c.Len)
		default:
			le := tb.length[tokens[i].Length()-lz77.MinMatch]
			x := uint32(tokens[i].Dist() - 1)
			de := tb.dist[distCode(x)]
			x &= 1<<(de.n-de.len) - 1 // the distance's extra bits
			bits = uint64(le.bits) | (uint64(de.bits)|uint64(x)<<de.len)<<le.n
			n = uint(le.n) + uint(de.n)
		}
		if pos+8 > len(buf) {
			w.SetState(buf[:pos], acc, nacc)
			w.WriteBits(bits, n)
			buf, acc, nacc = w.State()
			pos = len(buf)
			buf = buf[:cap(buf)]
			continue
		}
		acc |= bits << nacc
		nacc += n
		binary.LittleEndian.PutUint64(buf[pos:], acc)
		pos += int(nacc >> 3)
		acc >>= nacc &^ 7
		nacc &= 7
	}
	w.SetState(buf[:pos], acc, nacc)
}

// Options configures the one-shot software compressor.
type Options struct {
	Level     int       // 1..9, zlib-equivalent (default 6)
	Mode      BlockMode // block strategy (default ModeAuto)
	BlockSize int       // bytes of input per block (default 128 KiB)
	DHT       *DHT      // optional canned table for ModeDynamic
}

func (o *Options) fill() {
	if o.Level == 0 {
		o.Level = 6
	}
	if o.BlockSize == 0 {
		o.BlockSize = 128 << 10
	}
}

// Compress is the one-shot software DEFLATE encoder (raw stream, no gzip
// or zlib framing). It is the reproduction's "zlib on a core" baseline.
func Compress(src []byte, opts Options) ([]byte, error) {
	opts.fill()
	w := bitio.NewWriter(make([]byte, 0, len(src)/2+64))
	bw := NewBlockWriter(w)
	m := lz77.NewSoftMatcher(lz77.LevelParams(opts.Level))
	var tokens []lz77.Token // a block's are written out before the next block's are made
	if err := compressTokens(bw, src, opts, func(chunk []byte) []lz77.Token {
		tokens = m.Tokenize(tokens[:0], chunk)
		return tokens
	}); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func compressTokens(bw *BlockWriter, src []byte, opts Options, tokenize func([]byte) []lz77.Token) error {
	if len(src) == 0 {
		return bw.WriteBlock(nil, nil, true, opts.Mode, opts.DHT)
	}
	for off := 0; off < len(src); off += opts.BlockSize {
		end := off + opts.BlockSize
		final := false
		if end >= len(src) {
			end = len(src)
			final = true
		}
		// Note: blocks are tokenized independently (window does not span
		// blocks). This matches the accelerator's request-at-a-time
		// operation and costs a small amount of ratio at block borders.
		tokens := tokenize(src[off:end])
		if err := bw.WriteBlock(tokens, src[off:end], final, opts.Mode, opts.DHT); err != nil {
			return err
		}
	}
	return nil
}

// EncodeTokens serializes a complete token stream as a single final
// DEFLATE block (the accelerator emits one block per request). src is the
// tokens' expansion, needed for the stored fallback in ModeAuto.
func EncodeTokens(tokens []lz77.Token, src []byte, mode BlockMode, dht *DHT) ([]byte, error) {
	w := bitio.NewWriter(make([]byte, 0, len(src)/2+64))
	bw := NewBlockWriter(w)
	if err := bw.WriteBlock(tokens, src, true, mode, dht); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// EncodeTokensStream serializes tokens as one stream segment. When final,
// the block carries BFINAL and the stream ends. Otherwise the block is
// non-final and is followed by an empty stored block (zlib's sync flush),
// which both byte-aligns the segment — so per-request outputs concatenate
// into a single valid DEFLATE stream — and lets the decoder make progress
// at the request boundary. This is how the accelerator's library composes
// one long stream from buffer-sized requests.
func EncodeTokensStream(tokens []lz77.Token, src []byte, mode BlockMode, dht *DHT, final bool) ([]byte, error) {
	var e StreamEncoder
	return e.EncodeStream(make([]byte, 0, len(src)/2+64), tokens, src, mode, dht, final)
}

// StreamEncoder is a reusable stream-segment serializer: it owns the bit
// writer and block writer (with their scratch) so a long-lived holder —
// the modeled engine keeps one per engine — encodes segment after
// segment with zero allocations, appending each into a caller-supplied
// buffer. The zero value is ready to use; a StreamEncoder is not safe
// for concurrent use.
type StreamEncoder struct {
	w       bitio.Writer
	bw      BlockWriter
	sampled DHT // SampleDHT's result, over bw's scratch table
}

// SampleDHT builds the table of a single-pass DHT request in the encoder's
// scratch: symbols are counted over tokens (the head of the request's
// stream) and every symbol is then floored at one, so the table is
// complete — data after the sample may use any symbol. The table is the
// encoder's, valid for EncodeStream on this encoder until the next
// SampleDHT. (All-positive frequencies cannot fail to build; if they did,
// the nil table would have EncodeStream generate one from the whole block.)
func (e *StreamEncoder) SampleDHT(tokens []lz77.Token) *DHT {
	lf, df := e.bw.countInto(tokens)
	for i := range lf {
		lf[i]++
	}
	for i := range df {
		df[i]++
	}
	dyn, err := e.bw.generate(lf, df)
	if err != nil {
		return nil
	}
	e.sampled.LitLen, e.sampled.Dist, e.sampled.prep = e.bw.litLen[:], e.bw.dist[:], dyn
	return &e.sampled
}

// EncodeStream appends one stream segment (see EncodeTokensStream for
// the segment semantics) to dst and returns the extended slice.
func (e *StreamEncoder) EncodeStream(dst []byte, tokens []lz77.Token, src []byte, mode BlockMode, dht *DHT, final bool) ([]byte, error) {
	e.w.ResetTo(dst)
	e.bw.Reset(&e.w)
	if err := e.bw.WriteBlock(tokens, src, final, mode, dht); err != nil {
		return nil, err
	}
	if !final {
		e.bw.writeStored(nil, false) // sync flush
	}
	return e.w.Bytes(), nil
}
