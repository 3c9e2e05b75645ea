// Package deflate implements the DEFLATE compressed data format (RFC 1951)
// plus the gzip (RFC 1952) and zlib (RFC 1950) framings, from scratch, in
// both directions. The encoder consumes LZ77 token streams from either the
// software or the hardware matcher, so the same block writer backs the
// software baseline and the accelerator model.
package deflate

import (
	"nxzip/internal/huffman"
	"nxzip/internal/lz77"
)

// Alphabet sizes (RFC 1951 §3.2.5/3.2.7).
const (
	NumLitLen     = 286 // literal/length symbols 0..285 (286/287 reserved)
	NumDist       = 30  // distance symbols 0..29
	NumCodeLength = 19  // code-length alphabet 0..18
	EndOfBlock    = 256
	maxCodeLen    = 15
	maxCLCodeLen  = 7
)

// lengthBase[s] / lengthExtra[s] describe length symbol 257+s.
var lengthBase = [29]uint16{
	3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
	35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
}

var lengthExtra = [29]uint8{
	0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
	3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
}

// distBase[s] / distExtra[s] describe distance symbol s.
var distBase = [30]uint16{
	1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
	257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
	8193, 12289, 16385, 24577,
}

var distExtra = [30]uint8{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
	7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

// clOrder is the transmission order of code-length-code lengths
// (RFC 1951 §3.2.7).
var clOrder = [NumCodeLength]uint8{
	16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
}

// lengthSym maps a match length (3..258) to its symbol (257..285).
var lengthSym [lz77.MaxMatch + 1]uint16

// distSymSmall maps distances 1..256 directly; larger distances use
// distSymLarge indexed by (dist-1)>>7, mirroring zlib's two-level d_code.
var (
	distSymSmall [257]uint8
	distSymLarge [256]uint8
)

func init() {
	for s := 0; s < 29; s++ {
		lo := int(lengthBase[s])
		hi := lz77.MaxMatch
		if s < 28 {
			hi = int(lengthBase[s+1]) - 1
		}
		for l := lo; l <= hi; l++ {
			lengthSym[l] = uint16(257 + s)
		}
	}
	lengthSym[lz77.MaxMatch] = 285
	for s := 0; s < NumDist; s++ {
		lo := int(distBase[s])
		hi := lz77.WindowSize
		if s < NumDist-1 {
			hi = int(distBase[s+1]) - 1
		}
		for d := lo; d <= hi; d++ {
			if d <= 256 {
				distSymSmall[d] = uint8(s)
			}
			idx := (d - 1) >> 7
			if idx < 256 {
				distSymLarge[idx] = uint8(s)
			}
		}
	}
}

// LengthSymbol returns the litlen symbol and extra-bit value/count for a
// match length.
func LengthSymbol(length int) (sym int, extra uint32, nbits uint8) {
	s := lengthSym[length]
	i := int(s) - 257
	return int(s), uint32(length) - uint32(lengthBase[i]), lengthExtra[i]
}

// DistSymbol returns the distance symbol and extra-bit value/count for a
// match distance.
func DistSymbol(dist int) (sym int, extra uint32, nbits uint8) {
	s := distCode(uint32(dist - 1))
	return int(s), uint32(dist) - uint32(distBase[s]), distExtra[s]
}

// distCode returns the symbol of distance x+1. Every symbol's first
// distance is one more than a multiple of its extra-bit span, so the extra
// bits of the distance are simply the low distExtra bits of x.
func distCode(x uint32) uint8 {
	if x < 256 {
		return distSymSmall[x+1]
	}
	return distSymLarge[x>>7]
}

// LengthFromSymbol decodes a length symbol's base and extra-bit count.
func LengthFromSymbol(sym int) (base int, nbits uint8, ok bool) {
	if sym < 257 || sym > 285 {
		return 0, 0, false
	}
	return int(lengthBase[sym-257]), lengthExtra[sym-257], true
}

// DistFromSymbol decodes a distance symbol's base and extra-bit count.
func DistFromSymbol(sym int) (base int, nbits uint8, ok bool) {
	if sym < 0 || sym >= NumDist {
		return 0, 0, false
	}
	return int(distBase[sym]), distExtra[sym], true
}

// litLenValues and distValues are what the decode tables carry per symbol
// beside its code: a length or distance symbol's base and extra-bit count,
// huffman.Special for end-of-block and the reserved symbols a fixed code
// can spell (286, 287, 30, 31). A literal needs nothing but its symbol.
var litLenValues, distValues = func() (ll [288]huffman.Entry, d [32]huffman.Entry) {
	for sym := EndOfBlock; sym < len(ll); sym++ {
		ll[sym] = huffman.Special
		if base, nb, ok := LengthFromSymbol(sym); ok {
			ll[sym] = huffman.Value(base, nb)
		}
	}
	for sym := range d {
		d[sym] = huffman.Special
		if base, nb, ok := DistFromSymbol(sym); ok {
			d[sym] = huffman.Value(base, nb)
		}
	}
	return
}()

// FixedLitLenLengths returns the static-Huffman literal/length code lengths
// (RFC 1951 §3.2.6). 288 entries: symbols 286/287 participate in code
// construction even though they never appear in valid data.
func FixedLitLenLengths() []uint8 {
	l := make([]uint8, 288)
	for i := 0; i <= 143; i++ {
		l[i] = 8
	}
	for i := 144; i <= 255; i++ {
		l[i] = 9
	}
	for i := 256; i <= 279; i++ {
		l[i] = 7
	}
	for i := 280; i <= 287; i++ {
		l[i] = 8
	}
	return l
}

// FixedDistLengths returns the static distance code lengths: 32 five-bit
// codes (30/31 reserved but encoded).
func FixedDistLengths() []uint8 {
	l := make([]uint8, 32)
	for i := range l {
		l[i] = 5
	}
	return l
}
