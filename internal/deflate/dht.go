package deflate

import (
	"fmt"
	"slices"
	"sync"

	"nxzip/internal/bitio"
	"nxzip/internal/huffman"
	"nxzip/internal/lz77"
)

// DHT is a dynamic Huffman table: the code lengths for the literal/length
// and distance alphabets. This is exactly the object the accelerator's
// "DHT" interface exchanges with software — the POWER9 NX API lets callers
// supply a canned DHT, ask the engine to generate one from the data, or
// fall back to the fixed table.
//
// The code lengths fully determine the canonical codes and the serialized
// header, so both are derived once on first use and cached on the table
// (LitLen/Dist must not be mutated after the table is first used to
// encode). DHTs are shared by pointer; they must not be copied after first
// use.
type DHT struct {
	LitLen []uint8 // 257..286 entries (must include EndOfBlock)
	Dist   []uint8 // 1..30 entries

	prepOnce sync.Once
	prep     *dynTables
	prepErr  error
}

// prepared returns the table in encodable form, deriving it on first call.
// This is what makes the canned-DHT request path allocation-free: a
// long-lived table — exactly how the NX library ships canned DHTs — pays
// table construction once, not per request. A StreamEncoder's sampled
// table arrives with prep already pointing into the encoder's scratch.
func (d *DHT) prepared() (*dynTables, error) {
	d.prepOnce.Do(func() {
		if d.prep == nil {
			d.prep = new(dynTables)
			d.prepErr = d.prep.init(new(huffman.Builder), d.LitLen, d.Dist)
		}
	})
	return d.prep, d.prepErr
}

// CountFrequencies tallies litlen/dist symbol frequencies for a token
// stream, including the end-of-block symbol. The returned slices are sized
// to the full alphabets.
func CountFrequencies(tokens []lz77.Token) (litlen, dist []int64) {
	litlen = make([]int64, NumLitLen)
	dist = make([]int64, NumDist)
	CountFrequenciesInto(litlen, dist, tokens)
	return litlen, dist
}

// CountFrequenciesInto is the allocation-free form of CountFrequencies:
// it tallies into caller-provided full-alphabet slices, which must be
// zeroed by the caller.
func CountFrequenciesInto(litlen, dist []int64, tokens []lz77.Token) {
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

// BuildDHT constructs length-limited Huffman tables from symbol
// frequencies. It guarantees a decodable table: EndOfBlock always gets a
// code, and if no distance symbol occurs, one distance code is still
// emitted (RFC 1951 permits zero but one dummy code maximizes decoder
// compatibility, matching zlib).
func BuildDHT(litlenFreq, distFreq []int64) (*DHT, error) {
	var (
		b  huffman.Builder
		lf [NumLitLen]int64
		df [NumDist]int64
	)
	copy(lf[:], litlenFreq)
	copy(df[:], distFreq)
	d := &DHT{LitLen: make([]uint8, NumLitLen), Dist: make([]uint8, NumDist)}
	if err := buildLengths(&b, d.LitLen, d.Dist, lf[:], df[:]); err != nil {
		return nil, err
	}
	return d, nil
}

// buildLengths is BuildDHT into the caller's full-alphabet length slices.
// The two guarantees are patched into the frequencies for the build and
// taken out again: ModeAuto costs the block with the same counts after.
func buildLengths(b *huffman.Builder, litLen, dist []uint8, lf, df []int64) error {
	eob, d0 := lf[EndOfBlock], df[0]
	lf[EndOfBlock] = max(eob, 1)
	if !slices.ContainsFunc(df, func(f int64) bool { return f > 0 }) {
		df[0] = 1
	}
	err := b.Lengths(litLen, lf, maxCodeLen)
	if err != nil {
		err = fmt.Errorf("deflate: litlen table: %w", err)
	} else if err = b.Lengths(dist, df, maxCodeLen); err != nil {
		err = fmt.Errorf("deflate: dist table: %w", err)
	}
	lf[EndOfBlock], df[0] = eob, d0
	return err
}

// trim returns lengths with trailing zeros removed, but at least min
// entries.
func trim(lengths []uint8, min int) []uint8 {
	n := len(lengths)
	for n > min && lengths[n-1] == 0 {
		n--
	}
	return lengths[:n]
}

// clSymbol is one code-length-alphabet symbol with its extra bits.
type clSymbol struct {
	sym   uint8
	extra uint8
	ebits uint8
}

// runLength appends to out the encoding of a sequence of code lengths in
// the code-length alphabet (symbols 0..15 literal, 16 repeat-prev, 17/18
// zero runs).
func runLength(out []clSymbol, lengths []uint8) []clSymbol {
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
				r := min(run, 138)
				if r <= 10 {
					out = append(out, clSymbol{17, uint8(r - 3), 3})
				} else {
					out = append(out, clSymbol{18, uint8(r - 11), 7})
				}
				run -= r
				i += r
			}
		case v != 0 && run >= 4:
			// Emit the value once, then repeat-prev runs of 3..6.
			out = append(out, clSymbol{v, 0, 0})
			i++
			run--
			for run >= 3 {
				r := min(run, 6)
				out = append(out, clSymbol{16, uint8(r - 3), 2})
				run -= r
				i += r
			}
		}
		for ; run > 0; run-- { // what no run symbol covers goes out as is
			out = append(out, clSymbol{v, 0, 0})
			i++
		}
	}
	return out
}

// headerPlan is a fully-computed dynamic block header, ready to write and
// with a known bit cost (used for stored/fixed/dynamic selection). All
// fixed arrays: a plan lives inside a dynTables.
type headerPlan struct {
	hlit, hdist, hclen int // entries sent: litlen, dist, code-length-code lengths
	nsyms              int // the litlen then dist lengths, run-length coded: syms[:nsyms]
	syms               [NumLitLen + NumDist]clSymbol
	clLengths          [NumCodeLength]uint8
	clCodes            [NumCodeLength]huffman.Code
	bits               int
}

// init computes the serialized form of a table from its trimmed lengths.
func (h *headerPlan) init(b *huffman.Builder, litLen, dist []uint8) error {
	h.hlit, h.hdist = len(litLen), len(dist)
	var combined [NumLitLen + NumDist]uint8
	n := copy(combined[:], litLen)
	n += copy(combined[n:], dist)
	h.nsyms = len(runLength(h.syms[:0], combined[:n]))
	var clFreq [NumCodeLength]int64
	for _, s := range h.syms[:h.nsyms] {
		clFreq[s.sym]++
	}
	if err := b.Lengths(h.clLengths[:], clFreq[:], maxCLCodeLen); err != nil {
		return err
	}
	if err := huffman.AssignCodes(h.clCodes[:], h.clLengths[:]); err != nil {
		return err
	}
	// HCLEN: number of code-length-code lengths transmitted, in clOrder,
	// with trailing zeros omitted (min 4).
	h.hclen = NumCodeLength
	for h.hclen > 4 && h.clLengths[clOrder[h.hclen-1]] == 0 {
		h.hclen--
	}
	h.bits = 5 + 5 + 4 + 3*h.hclen
	for _, s := range h.syms[:h.nsyms] {
		h.bits += int(h.clCodes[s.sym].Len) + int(s.ebits)
	}
	return nil
}

// write emits the dynamic header (after the 3 block-header bits).
func (h *headerPlan) write(w *bitio.Writer) {
	w.WriteBits(uint64(h.hlit-257), 5)
	w.WriteBits(uint64(h.hdist-1), 5)
	w.WriteBits(uint64(h.hclen-4), 4)
	for i := 0; i < h.hclen; i++ {
		w.WriteBits(uint64(h.clLengths[clOrder[i]]), 3)
	}
	for _, s := range h.syms[:h.nsyms] {
		c := h.clCodes[s.sym]
		w.WriteBits(uint64(c.Bits)|uint64(s.extra)<<c.Len, uint(c.Len+s.ebits))
	}
}
