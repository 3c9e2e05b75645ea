package huffman

import (
	"errors"
	"fmt"
	"math/bits"

	"nxzip/internal/bitio"
)

// ErrInvalidCode is returned when the input bits do not correspond to any
// symbol in the code.
var ErrInvalidCode = errors.New("huffman: invalid code in stream")

// Entry is one slot of a decode table, packed so that a DEFLATE decoder
// learns everything about a symbol from a single load:
//
//	bits  0..3   code length in bits (0: no code maps here)
//	bits  4..7   extra-bit count that follows the code (0..13);
//	             14 marks a symbol the caller handles out of line, 15 a link
//	bits  8..22  base value the extra bits add to (for a link: the
//	             sub-table's offset, and bits 0..3 hold its index width)
//	bits 23..31  symbol
//
// A symbol below 256 — a DEFLATE literal — has the top bit clear, so the
// literal test is a sign test; links and unowned code space carry symbol
// 511 to stay out of its way.
type Entry uint32

const (
	extraShift = 4
	baseShift  = 8
	baseMask   = 1<<15 - 1
	symShift   = 23
	maxSymbols = 1 << 9

	// Special is the Value of a symbol with no base/extra meaning that a
	// decode loop must take out of line (end-of-block, reserved symbols).
	Special  Entry = 14 << extraShift
	linkBits Entry = 15 << extraShift
	// invalid fills code space no symbol owns: Special, zero length, and a
	// symbol no alphabet has. link is the same with the link marker.
	invalid = Entry(maxSymbols-1)<<symShift | Special
	link    = Entry(maxSymbols-1)<<symShift | linkBits
)

// Value packs the base and extra-bit count a symbol stands for; Init ORs in
// the symbol and its code length.
func Value(base int, extra uint8) Entry {
	return Entry(base)<<baseShift | Entry(extra)<<extraShift
}

// Len is the code's length in bits; zero means no code maps to the entry.
func (e Entry) Len() uint { return uint(e & 15) }

// Extra is the number of extra bits following the code.
func (e Entry) Extra() uint { return uint(e>>extraShift) & 15 }

// Base is the value the extra bits are added to.
func (e Entry) Base() int { return int(e>>baseShift) & baseMask }

// Sym is the decoded symbol.
func (e Entry) Sym() int { return int(e >> symShift) }

// IsLiteral reports Sym() < 256.
func (e Entry) IsLiteral() bool { return int32(e) >= 0 }

// IsSpecial reports an entry that is not a plain base+extra symbol: one
// built from Special, unowned code space (Len 0), or a link.
func (e Entry) IsSpecial() bool { return e&Special == Special }

// IsLink reports a primary entry that points at a sub-table; Sub follows it.
func (e Entry) IsLink() bool { return e&linkBits == linkBits }

// Sub resolves a link given the bits above the primary index.
func (e Entry) Sub(table []Entry, high uint64) Entry {
	return table[uint(e.Base())+uint(high)&(1<<e.Len()-1)]
}

// Decoder decodes canonical Huffman codes from LSB-first bit streams using
// a two-level table of packed entries: a primary table of 1<<primaryBits
// entries resolves all short codes in one lookup, and longer codes chain to
// per-prefix sub-tables sized by the longest code under the prefix. This
// mirrors both zlib's inflate tables and the parallel lookup structures
// used in hardware decoders. A Decoder is reusable: Init rebuilds it in
// place, keeping the table's storage.
type Decoder struct {
	table       []Entry // primary, then sub-tables
	primaryBits uint
	maxLen      uint8
	numSyms     int
}

const (
	// DefaultPrimaryBits is a good table size for DEFLATE alphabets:
	// 9 bits covers the literal/length alphabet's common codes and is the
	// same root size zlib uses (ENOUGH tables with 9-bit roots).
	DefaultPrimaryBits = 9
)

// NewDecoder builds a decoder for the canonical code defined by lengths.
// Length-zero symbols have no code. The code may be incomplete (Kraft sum
// below capacity); unassigned code space decodes to ErrInvalidCode.
func NewDecoder(lengths []uint8, primaryBits uint) (*Decoder, error) {
	d := new(Decoder)
	if err := d.Init(lengths, primaryBits, nil); err != nil {
		return nil, err
	}
	return d, nil
}

// Init rebuilds d for the canonical code defined by lengths, reusing the
// table's storage. values, when non-nil, supplies each symbol's Value (it
// must be at least as long as lengths); with nil every entry carries the
// symbol alone.
func (d *Decoder) Init(lengths []uint8, primaryBits uint, values []Entry) error {
	if primaryBits < 1 || primaryBits > MaxBitsDeflate {
		return fmt.Errorf("huffman: primaryBits %d out of range", primaryBits)
	}
	if len(lengths) > maxSymbols {
		return fmt.Errorf("huffman: %d symbols exceed %d", len(lengths), maxSymbols)
	}
	var count [MaxBitsDeflate + 1]int
	for _, l := range lengths {
		if l > MaxBitsDeflate {
			return fmt.Errorf("huffman: code length %d exceeds %d", l, MaxBitsDeflate)
		}
		count[l]++
	}
	// First code of each length (canonical, identical to NewEncoder), and
	// the Kraft check: left is the code space still free at each length.
	var next [MaxBitsDeflate + 2]uint32
	code, left, maxLen := uint32(0), 1, 0
	for l := 1; l <= MaxBitsDeflate; l++ {
		next[l] = code
		code = (code + uint32(count[l])) << 1
		if left = left<<1 - count[l]; left < 0 {
			return fmt.Errorf("huffman: over-subscribed code")
		}
		if count[l] > 0 {
			maxLen = l
		}
	}
	d.primaryBits, d.maxLen, d.numSyms = primaryBits, uint8(maxLen), len(lengths)-count[0]
	primary := 1 << primaryBits
	if cap(d.table) < primary {
		d.table = make([]Entry, primary, primary+primary/2)
	}
	d.table = d.table[:primary]
	for i := range d.table {
		d.table[i] = invalid
	}

	// Pass 1, only when some code is longer than the primary index: note
	// under each prefix the longest code it leads to, then lay a sub-table
	// of that width out behind the primary table.
	if uint(maxLen) > primaryBits {
		first := next
		for _, l := range lengths {
			if uint(l) <= primaryBits {
				continue
			}
			prefix := bits.Reverse16(uint16(first[l])) >> (16 - l) & uint16(primary-1)
			first[l]++
			if width := Entry(uint(l) - primaryBits); d.table[prefix]&15 < width { // invalid has width 0
				d.table[prefix] = link | width
			}
		}
		for i := 0; i < primary; i++ {
			if !d.table[i].IsLink() {
				continue
			}
			off := len(d.table)
			if off > baseMask {
				return fmt.Errorf("huffman: decode table too large")
			}
			d.table[i] |= Entry(off) << baseShift
			for n := 1 << d.table[i].Len(); n > 0; n-- {
				d.table = append(d.table, invalid)
			}
		}
	}

	// Pass 2: every symbol's entry, replicated over each index whose low
	// bits are its (bit-reversed) code.
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		rev := uint(bits.Reverse16(uint16(next[l])) >> (16 - l))
		next[l]++
		e := Entry(sym)<<symShift | Entry(l)
		if values != nil {
			e |= values[sym]
		}
		tab, step := d.table[:primary], uint(1)<<l
		if uint(l) > primaryBits {
			lk := tab[rev&uint(primary-1)]
			tab = d.table[lk.Base():][:1<<lk.Len()]
			rev >>= primaryBits
			step = 1 << (uint(l) - primaryBits)
		}
		for i := rev; i < uint(len(tab)); i += step {
			tab[i] = e
		}
	}
	return nil
}

// Table exposes the packed table to a decode loop: index it with the next
// primaryBits stream bits, and follow a link with Entry.Sub.
func (d *Decoder) Table() (table []Entry, primaryBits uint) {
	return d.table, d.primaryBits
}

// Lookup resolves the next code in r to its entry and consumes exactly the
// code's bits (the extra bits, if any, are the caller's to read). A code
// that is unassigned, or longer than the input that remains, is
// ErrInvalidCode.
func (d *Decoder) Lookup(r *bitio.Reader) (Entry, error) {
	v, avail := r.PeekBits(MaxBitsDeflate)
	e := d.table[v&(1<<d.primaryBits-1)]
	if e.IsLink() {
		e = e.Sub(d.table, v>>d.primaryBits)
	}
	if n := e.Len(); n == 0 || n > avail {
		return 0, ErrInvalidCode
	}
	return e, r.SkipBits(e.Len())
}

// Decode reads one symbol. It consumes exactly the code's length in bits.
func (d *Decoder) Decode(r *bitio.Reader) (int, error) {
	e, err := d.Lookup(r)
	return e.Sym(), err
}

// MaxLen reports the longest code length in the table.
func (d *Decoder) MaxLen() uint8 { return d.maxLen }

// NumSymbols reports how many symbols have codes.
func (d *Decoder) NumSymbols() int { return d.numSyms }
