package deflate

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"nxzip/internal/huffman"

	"nxzip/internal/lz77"
)

// The encode path as it stood before the single fast core, verbatim apart
// from the ref names: huffman.BuildLengths (container/heap, assignDepths,
// repairOverflow) and huffman.NewEncoder, deflate's CountFrequencies,
// BuildDHT, runLength/planHeader, BlockWriter.WriteBlock with its cost
// functions and writeTokens, StreamEncoder.EncodeStream, and bitio.Writer
// with its byte-at-a-time flush. It is the oracle TestEncodeEqualsReference
// and FuzzEncodeEqualsReference hold the production encoder to — equal
// bytes, equal error class. The compressed bytes are the model (TPBC,
// ratio, model_digest), so "equal" is the whole contract.

// ---- bitio.Writer ----

type refWriter struct {
	buf   []byte
	acc   uint64 // bit accumulator, valid low `nacc` bits
	nacc  uint   // number of valid bits in acc (< 8 after flushAcc)
	start int    // length of buf at last Reset, for Len accounting
}

// newRefWriter returns a refWriter that appends to buf (which may be nil).
func newRefWriter(buf []byte) *refWriter {
	return &refWriter{buf: buf, start: len(buf)}
}

// Reset discards all written data and starts over with an empty buffer,
// retaining the allocated storage.
func (w *refWriter) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nacc = 0
	w.start = 0
}

// ResetTo discards all state and continues appending to buf, which must
// be byte-aligned (any []byte is). Unlike Reset it adopts the caller's
// buffer, so an encoder can emit directly into caller-owned storage
// without the refWriter holding onto it afterwards.
func (w *refWriter) ResetTo(buf []byte) {
	w.buf = buf
	w.acc = 0
	w.nacc = 0
	w.start = len(buf)
}

// WriteBits writes the low n bits of v, LSB first. n must be in [0, 48].
// Bits above n in v are ignored.
func (w *refWriter) WriteBits(v uint64, n uint) {
	if n > 48 {
		panic("bitio: WriteBits count out of range")
	}
	v &= (1 << n) - 1
	w.acc |= v << w.nacc
	w.nacc += n
	for w.nacc >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

// WriteBool writes a single bit.
func (w *refWriter) WriteBool(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// AlignByte pads the stream with zero bits up to the next byte boundary.
// It returns the number of padding bits written (0..7).
func (w *refWriter) AlignByte() uint {
	pad := (8 - w.nacc%8) % 8
	if pad > 0 {
		w.WriteBits(0, pad)
	}
	return pad
}

// WriteBytes writes whole bytes. The stream must be byte-aligned; callers
// that may be mid-byte should call AlignByte first. Panics otherwise, since
// an unaligned byte copy indicates an encoder bug, not an input error.
func (w *refWriter) WriteBytes(p []byte) {
	if w.nacc != 0 {
		panic("bitio: WriteBytes on unaligned stream")
	}
	w.buf = append(w.buf, p...)
}

// BitsWritten reports the total number of bits written since creation or
// the last Reset, including bits still in the accumulator.
func (w *refWriter) BitsWritten() int {
	return (len(w.buf)-w.start)*8 + int(w.nacc)
}

// Bytes flushes the accumulator (zero-padding to a byte boundary) and
// returns the underlying buffer. The refWriter remains usable; subsequent
// writes continue byte-aligned.
func (w *refWriter) Bytes() []byte {
	w.AlignByte()
	return w.buf
}

// Aligned reports whether the stream is currently at a byte boundary.
func (w *refWriter) Aligned() bool { return w.nacc == 0 }

// ---- huffman.BuildLengths, huffman.NewEncoder ----

// refBuildNode is a node in the Huffman construction heap.
type refBuildNode struct {
	weight int64
	// depth-tiebreak: prefer shallower subtrees so the tree stays balanced
	// and rarely violates the length limit in the first place.
	depth int32
	sym   int32 // >= 0 for leaves, -1 for internal
	left  int32 // index into nodes
	right int32
}

type refBuildHeap struct {
	idx   []int32
	nodes []refBuildNode
}

func (h *refBuildHeap) Len() int { return len(h.idx) }
func (h *refBuildHeap) Less(i, j int) bool {
	a, b := h.nodes[h.idx[i]], h.nodes[h.idx[j]]
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	return a.depth < b.depth
}
func (h *refBuildHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *refBuildHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int32)) }
func (h *refBuildHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	v := old[n-1]
	h.idx = old[:n-1]
	return v
}

// refBuildLengths computes Huffman code lengths for the given symbol
// frequencies, limited to maxBits. Symbols with zero frequency get length
// zero (no code). If only one symbol has nonzero frequency it is assigned
// length 1, matching DEFLATE's requirement that every used code be at
// least one bit.
//
// If the unconstrained Huffman tree exceeds maxBits, lengths are flattened
// with the standard overflow-repair pass (the same approach zlib uses),
// preserving the Kraft inequality so the result is always a valid prefix
// code.
func refBuildLengths(freqs []int64, maxBits int) ([]uint8, error) {
	if maxBits < 1 || maxBits > 32 {
		return nil, fmt.Errorf("huffman: maxBits %d out of range", maxBits)
	}
	n := len(freqs)
	lengths := make([]uint8, n)
	var live []int32
	for i, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("huffman: negative frequency for symbol %d", i)
		}
		if f > 0 {
			live = append(live, int32(i))
		}
	}
	switch len(live) {
	case 0:
		return lengths, nil
	case 1:
		lengths[live[0]] = 1
		return lengths, nil
	}
	if len(live) > (1 << maxBits) {
		return nil, fmt.Errorf("huffman: %d symbols cannot fit in %d bits", len(live), maxBits)
	}

	nodes := make([]refBuildNode, 0, 2*len(live))
	h := &refBuildHeap{nodes: nil}
	for _, s := range live {
		nodes = append(nodes, refBuildNode{weight: freqs[s], sym: s, left: -1, right: -1})
	}
	h.nodes = nodes
	h.idx = make([]int32, len(live))
	for i := range h.idx {
		h.idx[i] = int32(i)
	}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(int32)
		b := heap.Pop(h).(int32)
		d := h.nodes[a].depth
		if h.nodes[b].depth > d {
			d = h.nodes[b].depth
		}
		h.nodes = append(h.nodes, refBuildNode{
			weight: h.nodes[a].weight + h.nodes[b].weight,
			depth:  d + 1,
			sym:    -1,
			left:   a,
			right:  b,
		})
		heap.Push(h, int32(len(h.nodes)-1))
	}
	root := h.idx[0]
	refAssignDepths(h.nodes, root, 0, lengths)
	refRepairOverflow(lengths, freqs, maxBits)
	return lengths, nil
}

// refAssignDepths walks the tree iteratively (inputs can be large alphabets)
// and records leaf depths.
func refAssignDepths(nodes []refBuildNode, root int32, depth uint8, lengths []uint8) {
	type frame struct {
		node  int32
		depth uint8
	}
	stack := []frame{{root, depth}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[f.node]
		if nd.sym >= 0 {
			lengths[nd.sym] = f.depth
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
}

// refRepairOverflow caps code lengths at maxBits and restores the Kraft
// equality by demoting the least-frequent short codes.
func refRepairOverflow(lengths []uint8, freqs []int64, maxBits int) {
	overflow := false
	for _, l := range lengths {
		if int(l) > maxBits {
			overflow = true
			break
		}
	}
	if !overflow {
		return
	}
	// Count codes per length, clamping.
	counts := make([]int, maxBits+1)
	for i, l := range lengths {
		if l == 0 {
			continue
		}
		if int(l) > maxBits {
			lengths[i] = uint8(maxBits)
		}
		counts[lengths[i]]++
	}
	// Kraft sum in units of 2^-maxBits.
	kraft := 0
	for l := 1; l <= maxBits; l++ {
		kraft += counts[l] << (maxBits - l)
	}
	limit := 1 << maxBits
	// While over-subscribed, move one code from the deepest under-limit
	// level down a level and promote one maxBits code as its sibling; the
	// Kraft sum drops by exactly 1 per step (zlib's gen_bitlen repair).
	for kraft > limit {
		l := maxBits - 1
		for counts[l] == 0 {
			l--
		}
		counts[l]--
		counts[l+1] += 2
		counts[maxBits]--
		kraft--
	}
	// Reassign lengths to symbols: sort live symbols by frequency ascending
	// so the least frequent get the longest codes, then deal lengths from
	// longest to shortest according to counts.
	type symFreq struct {
		sym  int
		freq int64
	}
	var live []symFreq
	for i, l := range lengths {
		if l != 0 {
			live = append(live, symFreq{i, freqs[i]})
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].freq != live[j].freq {
			return live[i].freq < live[j].freq
		}
		return live[i].sym < live[j].sym
	})
	li := 0
	for l := maxBits; l >= 1; l-- {
		for c := 0; c < counts[l]; c++ {
			lengths[live[li].sym] = uint8(l)
			li++
		}
	}
}

// refCode is one canonical Huffman code: the code bits (already bit-reversed
// for LSB-first emission into a DEFLATE stream) and its length in bits.
type refCode struct {
	Bits uint16 // reversed code value, ready for bitio.Writer.WriteBits
	Len  uint8  // 0 means the symbol has no code
}

// refEncoder maps symbols to canonical codes.
type refEncoder struct {
	Codes   []refCode
	Lengths []uint8
}

// newRefEncoder assigns canonical codes to the given code lengths, following
// the DEFLATE convention: shorter codes first, ties broken by symbol order,
// codes counted upward within each length.
func newRefEncoder(lengths []uint8) (*refEncoder, error) {
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	if maxLen == 0 {
		return &refEncoder{Codes: make([]refCode, len(lengths)), Lengths: lengths}, nil
	}
	if maxLen > 31 {
		return nil, fmt.Errorf("huffman: code length %d too large", maxLen)
	}
	counts := make([]uint32, maxLen+1)
	for _, l := range lengths {
		counts[l]++
	}
	counts[0] = 0
	// first code of each length
	next := make([]uint32, maxLen+2)
	code := uint32(0)
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + counts[l-1]) << 1
		next[l] = code
	}
	// over-subscription check
	if k := huffman.KraftSum(lengths, int(maxLen)); k > 1<<maxLen {
		return nil, fmt.Errorf("huffman: over-subscribed code (kraft %d > %d)", k, 1<<maxLen)
	}
	codes := make([]refCode, len(lengths))
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		c := next[l]
		next[l]++
		codes[sym] = refCode{Bits: uint16(refReverse16(uint16(c), uint(l))), Len: l}
	}
	return &refEncoder{Codes: codes, Lengths: lengths}, nil
}

func refReverse16(v uint16, n uint) uint16 {
	var out uint16
	for i := uint(0); i < n; i++ {
		out = out<<1 | (v & 1)
		v >>= 1
	}
	return out
}

// ---- deflate: refCountFrequencies, refBuildDHT, refPlanHeader ----

// refDHT is DHT without the cached encoders: the reference derives them per block.
type refDHT struct {
	LitLen []uint8
	Dist   []uint8
}

// prepared is DHT.prepared's body without the once.
func (d *refDHT) prepared() (*refEncoder, *refEncoder, *refHeaderPlan, error) {
	plan, err := refPlanHeader(d)
	if err != nil {
		return nil, nil, nil, err
	}
	ll, err := newRefEncoder(refPadLengths(d.LitLen, NumLitLen))
	if err != nil {
		return nil, nil, nil, err
	}
	dd, err := newRefEncoder(refPadLengths(d.Dist, NumDist))
	return ll, dd, plan, err
}

// refCountFrequencies tallies litlen/dist symbol frequencies for a token
// stream, including the end-of-block symbol. The returned slices are sized
// to the full alphabets.
func refCountFrequencies(tokens []lz77.Token) (litlen, dist []int64) {
	litlen = make([]int64, NumLitLen)
	dist = make([]int64, NumDist)
	refCountFrequenciesInto(litlen, dist, tokens)
	return litlen, dist
}

// refCountFrequenciesInto is the allocation-free form of refCountFrequencies:
// it tallies into caller-provided full-alphabet slices, which must be
// zeroed by the caller.
func refCountFrequenciesInto(litlen, dist []int64, tokens []lz77.Token) {
	for _, t := range tokens {
		if !t.IsMatch() {
			litlen[t.Literal()]++
			continue
		}
		ls, _, _ := LengthSymbol(t.Length())
		litlen[ls]++
		ds, _, _ := DistSymbol(t.Dist())
		dist[ds]++
	}
	litlen[EndOfBlock]++
}

// refBuildDHT constructs length-limited Huffman tables from symbol
// frequencies. It guarantees a decodable table: EndOfBlock always gets a
// code, and if no distance symbol occurs, one distance code is still
// emitted (RFC 1951 permits zero but one dummy code maximizes decoder
// compatibility, matching zlib).
func refBuildDHT(litlenFreq, distFreq []int64) (*refDHT, error) {
	lf := make([]int64, NumLitLen)
	copy(lf, litlenFreq)
	if lf[EndOfBlock] == 0 {
		lf[EndOfBlock] = 1
	}
	df := make([]int64, NumDist)
	copy(df, distFreq)
	used := false
	for _, f := range df {
		if f > 0 {
			used = true
			break
		}
	}
	if !used {
		df[0] = 1
	}
	ll, err := refBuildLengths(lf, maxCodeLen)
	if err != nil {
		return nil, fmt.Errorf("deflate: litlen table: %w", err)
	}
	dl, err := refBuildLengths(df, maxCodeLen)
	if err != nil {
		return nil, fmt.Errorf("deflate: dist table: %w", err)
	}
	return &refDHT{LitLen: ll, Dist: dl}, nil
}

// refTrim returns lengths with trailing zeros removed, but at least min
// entries.
func refTrim(lengths []uint8, min int) []uint8 {
	n := len(lengths)
	for n > min && lengths[n-1] == 0 {
		n--
	}
	return lengths[:n]
}

// refCLSymbol is one code-length-alphabet symbol with its extra bits.
type refCLSymbol struct {
	sym   uint8
	extra uint8
	ebits uint8
}

// refRunLength encodes a sequence of code lengths into the code-length
// alphabet (symbols 0..15 literal, 16 repeat-prev, 17/18 zero runs).
func refRunLength(lengths []uint8) []refCLSymbol {
	var out []refCLSymbol
	i := 0
	for i < len(lengths) {
		v := lengths[i]
		run := 1
		for i+run < len(lengths) && lengths[i+run] == v {
			run++
		}
		switch {
		case v == 0 && run >= 3:
			for run >= 3 {
				r := run
				if r > 138 {
					r = 138
				}
				if r <= 10 {
					out = append(out, refCLSymbol{17, uint8(r - 3), 3})
				} else {
					out = append(out, refCLSymbol{18, uint8(r - 11), 7})
				}
				run -= r
				i += r
			}
			for ; run > 0; run-- {
				out = append(out, refCLSymbol{0, 0, 0})
				i++
			}
		case v != 0 && run >= 4:
			// Emit the value once, then repeat-prev runs of 3..6.
			out = append(out, refCLSymbol{v, 0, 0})
			i++
			run--
			for run >= 3 {
				r := run
				if r > 6 {
					r = 6
				}
				out = append(out, refCLSymbol{16, uint8(r - 3), 2})
				run -= r
				i += r
			}
			for ; run > 0; run-- {
				out = append(out, refCLSymbol{v, 0, 0})
				i++
			}
		default:
			for ; run > 0; run-- {
				out = append(out, refCLSymbol{v, 0, 0})
				i++
			}
		}
	}
	return out
}

// refHeaderPlan is a fully-computed dynamic block header, ready to write and
// with a known bit cost (used for stored/fixed/dynamic selection).
type refHeaderPlan struct {
	litlen    []uint8 // trimmed
	dist      []uint8 // trimmed
	clSymbols []refCLSymbol
	clLengths []uint8 // 19 entries
	clEnc     *refEncoder
	bits      int
}

// refPlanHeader computes the serialized form of a DHT.
func refPlanHeader(d *refDHT) (*refHeaderPlan, error) {
	ll := refTrim(d.LitLen, 257)
	dl := refTrim(d.Dist, 1)
	if len(ll) > NumLitLen || len(dl) > NumDist {
		return nil, fmt.Errorf("deflate: DHT alphabet too large (%d litlen, %d dist)", len(ll), len(dl))
	}
	combined := make([]uint8, 0, len(ll)+len(dl))
	combined = append(combined, ll...)
	combined = append(combined, dl...)
	syms := refRunLength(combined)
	clFreq := make([]int64, NumCodeLength)
	for _, s := range syms {
		clFreq[s.sym]++
	}
	clLengths, err := refBuildLengths(clFreq, maxCLCodeLen)
	if err != nil {
		return nil, err
	}
	clEnc, err := newRefEncoder(clLengths)
	if err != nil {
		return nil, err
	}
	// HCLEN: number of code-length-code lengths transmitted, in clOrder,
	// with trailing zeros omitted (min 4).
	hclen := NumCodeLength
	for hclen > 4 && clLengths[clOrder[hclen-1]] == 0 {
		hclen--
	}
	bits := 5 + 5 + 4 + 3*hclen
	for _, s := range syms {
		bits += int(clEnc.Codes[s.sym].Len) + int(s.ebits)
	}
	return &refHeaderPlan{
		litlen: ll, dist: dl, clSymbols: syms,
		clLengths: clLengths, clEnc: clEnc, bits: bits,
	}, nil
}

// write emits the dynamic header (after the 3 block-header bits).
func (h *refHeaderPlan) write(w *refWriter) {
	w.WriteBits(uint64(len(h.litlen)-257), 5)
	w.WriteBits(uint64(len(h.dist)-1), 5)
	hclen := NumCodeLength
	for hclen > 4 && h.clLengths[clOrder[hclen-1]] == 0 {
		hclen--
	}
	w.WriteBits(uint64(hclen-4), 4)
	for i := 0; i < hclen; i++ {
		w.WriteBits(uint64(h.clLengths[clOrder[i]]), 3)
	}
	for _, s := range h.clSymbols {
		c := h.clEnc.Codes[s.sym]
		w.WriteBits(uint64(c.Bits), uint(c.Len))
		if s.ebits > 0 {
			w.WriteBits(uint64(s.extra), uint(s.ebits))
		}
	}
}

// ---- deflate: refBlockWriter.WriteBlock, writeTokens, refStreamEncoder.EncodeStream ----

// refBlockWriter serializes token streams into DEFLATE blocks on a bit
// stream. It is the shared back end of the software codec and the
// accelerator model's Huffman-encode stage. The frequency scratch lives
// in the struct so a reused refBlockWriter counts symbols without
// allocating; the fixed Huffman tables are process-wide (they are
// defined by RFC 1951 and immutable after construction).
type refBlockWriter struct {
	w        *refWriter
	wroteEnd bool
	litFreq  [NumLitLen]int64
	distFreq [NumDist]int64
}

var (
	refFixedEncOnce sync.Once
	refFixedLLEnc   *refEncoder
	refFixedDEnc    *refEncoder
)

// refFixedEncoders returns the shared RFC 1951 static-table encoders. They
// are read-only after construction, so every refBlockWriter (and every
// modeled engine) shares one pair.
func refFixedEncoders() (*refEncoder, *refEncoder) {
	refFixedEncOnce.Do(func() {
		fl, err := newRefEncoder(FixedLitLenLengths())
		if err != nil {
			panic("deflate: fixed litlen table: " + err.Error())
		}
		fd, err := newRefEncoder(FixedDistLengths())
		if err != nil {
			panic("deflate: fixed dist table: " + err.Error())
		}
		refFixedLLEnc, refFixedDEnc = fl, fd
	})
	return refFixedLLEnc, refFixedDEnc
}

// newRefBlockWriter wraps a bit writer.
func newRefBlockWriter(w *refWriter) *refBlockWriter {
	return &refBlockWriter{w: w}
}

// Reset retargets the refBlockWriter at a (usually freshly reset) bit
// writer and clears the end-of-stream latch, so one refBlockWriter can
// serialize many independent streams without reallocation.
func (bw *refBlockWriter) Reset(w *refWriter) {
	bw.w = w
	bw.wroteEnd = false
}

// countInto tallies token frequencies into the writer's scratch arrays
// and returns them as slices.
func (bw *refBlockWriter) countInto(tokens []lz77.Token) ([]int64, []int64) {
	lf, df := bw.litFreq[:], bw.distFreq[:]
	for i := range lf {
		lf[i] = 0
	}
	for i := range df {
		df[i] = 0
	}
	refCountFrequenciesInto(lf, df, tokens)
	return lf, df
}

// WriteBlock emits one block containing tokens (whose expansion is src,
// needed for the stored fallback). final marks BFINAL. A provided dht is
// used for ModeDynamic ("canned" tables); pass nil to generate one from
// the token frequencies.
func (bw *refBlockWriter) WriteBlock(tokens []lz77.Token, src []byte, final bool, mode BlockMode, dht *refDHT) error {
	if bw.wroteEnd {
		return fmt.Errorf("deflate: write after final block")
	}
	litFreq, distFreq := bw.countInto(tokens)
	fixedLL, fixedD := refFixedEncoders()

	// Cost of fixed encoding.
	fixedBits := 3 + bw.costBits(litFreq, distFreq, fixedLL, fixedD)

	// Cost of dynamic encoding. A canned dht carries its encoders and
	// header plan from first use (see DHT.prepared), so the canned path
	// builds no tables per block — only a freshly generated table pays
	// the construction cost, exactly as the hardware builds its DHT
	// on-chip in DHT-generate mode.
	var (
		plan    *refHeaderPlan
		dynBits = int64(1) << 62
		llEnc   *refEncoder
		dEnc    *refEncoder
	)
	if mode == ModeDynamic || mode == ModeAuto {
		useDHT := dht
		var err error
		if useDHT == nil {
			useDHT, err = refBuildDHT(litFreq, distFreq)
			if err != nil {
				return err
			}
		}
		if llEnc, dEnc, plan, err = useDHT.prepared(); err != nil {
			return err
		}
		// A canned DHT may lack codes for symbols this block uses; detect
		// and reject (the hardware raises a CC error for this case).
		if err := refCheckCoverage(litFreq, llEnc, distFreq, dEnc); err != nil {
			return err
		}
		dynBits = 3 + int64(plan.bits) + bw.costBits(litFreq, distFreq, llEnc, dEnc)
	}

	storedBits := refStoredCost(len(src), bw.w.BitsWritten())

	switch mode {
	case ModeStored:
		bw.writeStoredChain(src, final)
	case ModeFixed:
		bw.writeHeader(final, 1)
		bw.writeTokens(tokens, fixedLL, fixedD)
	case ModeDynamic:
		bw.writeHeader(final, 2)
		plan.write(bw.w)
		bw.writeTokens(tokens, llEnc, dEnc)
	case ModeAuto:
		switch {
		case storedBits <= fixedBits && storedBits <= dynBits:
			bw.writeStoredChain(src, final)
		case fixedBits <= dynBits:
			bw.writeHeader(final, 1)
			bw.writeTokens(tokens, fixedLL, fixedD)
		default:
			bw.writeHeader(final, 2)
			plan.write(bw.w)
			bw.writeTokens(tokens, llEnc, dEnc)
		}
	default:
		return fmt.Errorf("deflate: unknown block mode %d", mode)
	}
	if final {
		bw.wroteEnd = true
	}
	return nil
}

// refPadLengths extends lengths to n entries with zeros (encoder tables are
// indexed by symbol).
func refPadLengths(lengths []uint8, n int) []uint8 {
	if len(lengths) >= n {
		return lengths[:n]
	}
	out := make([]uint8, n)
	copy(out, lengths)
	return out
}

// refCheckCoverage verifies every used symbol has a code.
func refCheckCoverage(litFreq []int64, ll *refEncoder, distFreq []int64, d *refEncoder) error {
	for sym, f := range litFreq {
		if f > 0 && ll.Codes[sym].Len == 0 {
			return fmt.Errorf("deflate: DHT missing litlen code for symbol %d", sym)
		}
	}
	for sym, f := range distFreq {
		if f > 0 && d.Codes[sym].Len == 0 {
			return fmt.Errorf("deflate: DHT missing dist code for symbol %d", sym)
		}
	}
	return nil
}

// costBits computes the token payload cost (including end-of-block) under
// the given encoders, excluding the 3 header bits and any table header.
func (bw *refBlockWriter) costBits(litFreq, distFreq []int64, ll, d *refEncoder) int64 {
	var bits int64
	for sym, f := range litFreq {
		if f == 0 {
			continue
		}
		bits += f * int64(ll.Codes[sym].Len)
		if sym > EndOfBlock {
			_, nb, _ := LengthFromSymbol(sym)
			bits += f * int64(nb)
		}
	}
	for sym, f := range distFreq {
		if f == 0 {
			continue
		}
		bits += f * int64(d.Codes[sym].Len)
		_, nb, _ := DistFromSymbol(sym)
		bits += f * int64(nb)
	}
	return bits
}

func (bw *refBlockWriter) writeHeader(final bool, btype uint64) {
	bw.w.WriteBool(final)
	bw.w.WriteBits(btype, 2)
}

func (bw *refBlockWriter) writeStored(src []byte, final bool) {
	bw.writeHeader(final, 0)
	bw.w.AlignByte()
	n := uint64(len(src))
	bw.w.WriteBits(n, 16)
	bw.w.WriteBits(^n, 16)
	bw.w.WriteBytes(src)
}

// writeStoredChain emits src as one or more stored blocks, splitting at
// the 64K-1 LEN limit.
func (bw *refBlockWriter) writeStoredChain(src []byte, final bool) {
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

// refStoredCost returns the exact bit cost of writeStoredChain starting at
// bit position pos.
func refStoredCost(n, pos int) int64 {
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

func (bw *refBlockWriter) writeTokens(tokens []lz77.Token, ll, d *refEncoder) {
	w := bw.w
	for _, t := range tokens {
		if !t.IsMatch() {
			c := ll.Codes[t.Literal()]
			w.WriteBits(uint64(c.Bits), uint(c.Len))
			continue
		}
		ls, lextra, lnb := LengthSymbol(t.Length())
		c := ll.Codes[ls]
		w.WriteBits(uint64(c.Bits), uint(c.Len))
		if lnb > 0 {
			w.WriteBits(uint64(lextra), uint(lnb))
		}
		ds, dextra, dnb := DistSymbol(t.Dist())
		dc := d.Codes[ds]
		w.WriteBits(uint64(dc.Bits), uint(dc.Len))
		if dnb > 0 {
			w.WriteBits(uint64(dextra), uint(dnb))
		}
	}
	eob := ll.Codes[EndOfBlock]
	w.WriteBits(uint64(eob.Bits), uint(eob.Len))
}

// refStreamEncoder is a reusable stream-segment serializer: it owns the bit
// writer and block writer (with their scratch) so a long-lived holder —
// the modeled engine keeps one per engine — encodes segment after
// segment with zero allocations, appending each into a caller-supplied
// buffer. The zero value is ready to use; a refStreamEncoder is not safe
// for concurrent use.
type refStreamEncoder struct {
	w  refWriter
	bw refBlockWriter
}

// newRefStreamEncoder returns an empty encoder.
func newRefStreamEncoder() *refStreamEncoder { return &refStreamEncoder{} }

// EncodeStream appends one stream segment (see EncodeTokensStream for
// the segment semantics) to dst and returns the extended slice.
func (e *refStreamEncoder) EncodeStream(dst []byte, tokens []lz77.Token, src []byte, mode BlockMode, dht *refDHT, final bool) ([]byte, error) {
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
