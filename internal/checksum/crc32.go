// Package checksum implements the CRC-32 (IEEE 802.3, used by gzip) and
// Adler-32 (used by zlib) checksums from scratch. The accelerator computes
// these inline with compression/decompression; this package provides the
// same incremental interface so the device model can account for them per
// data beat.
package checksum

import "encoding/binary"

// CRC-32 with the IEEE polynomial, bit-reflected, as used by gzip.
// Implemented with a 16-way slicing table (16 KiB) for speed; the table is
// generated at init from the polynomial rather than embedded, which both
// documents the math and keeps the source small. (An 8-way table with one
// 8-byte load per step is a single dependent chain: 0.65 ns/B measured on
// 64 KiB against 0.4 for this one, so the larger table earns its cache.)

// IEEEPoly is the reversed (bit-reflected) IEEE 802.3 polynomial.
const IEEEPoly = 0xEDB88320

var crcTable [16][256]uint32

func init() {
	for i := 0; i < 256; i++ {
		c := uint32(i)
		for j := 0; j < 8; j++ {
			if c&1 != 0 {
				c = c>>1 ^ IEEEPoly
			} else {
				c >>= 1
			}
		}
		crcTable[0][i] = c
	}
	for i := 0; i < 256; i++ {
		c := crcTable[0][i]
		for k := 1; k < len(crcTable); k++ {
			c = crcTable[0][c&0xFF] ^ c>>8
			crcTable[k][i] = c
		}
	}
}

// CRC32 is an incremental CRC-32 accumulator. The zero value is ready to
// use and corresponds to an empty message.
type CRC32 struct {
	state uint32 // pre-inverted running value
	init  bool
}

// Update absorbs p into the checksum.
func (c *CRC32) Update(p []byte) {
	if !c.init {
		c.state = ^uint32(0)
		c.init = true
	}
	crc := c.state
	// Slicing-by-16 main loop: one 8-byte load per 8 bytes (the p[:16:16]
	// reslice is the only bounds check) and sixteen table reads in four
	// independent XOR chains, of which one takes in the running value and
	// so waits on the last step.
	t := &crcTable
	for len(p) >= 16 {
		q := p[:16:16]
		lo := binary.LittleEndian.Uint64(q) ^ uint64(crc)
		hi := binary.LittleEndian.Uint64(q[8:])
		c0 := t[15][byte(lo)] ^ t[14][byte(lo>>8)] ^ t[13][byte(lo>>16)] ^ t[12][byte(lo>>24)]
		c1 := t[11][byte(lo>>32)] ^ t[10][byte(lo>>40)] ^ t[9][byte(lo>>48)] ^ t[8][lo>>56]
		c2 := t[7][byte(hi)] ^ t[6][byte(hi>>8)] ^ t[5][byte(hi>>16)] ^ t[4][byte(hi>>24)]
		c3 := t[3][byte(hi>>32)] ^ t[2][byte(hi>>40)] ^ t[1][byte(hi>>48)] ^ t[0][hi>>56]
		crc = c0 ^ c1 ^ (c2 ^ c3)
		p = p[16:]
	}
	for _, b := range p {
		crc = crcTable[0][byte(crc)^b] ^ crc>>8
	}
	c.state = crc
}

// Sum returns the checksum of everything absorbed so far.
func (c *CRC32) Sum() uint32 {
	if !c.init {
		return 0
	}
	return ^c.state
}

// Reset returns the accumulator to the empty-message state.
func (c *CRC32) Reset() { c.state = 0; c.init = false }

// Sum32 is a convenience one-shot CRC-32.
func Sum32(p []byte) uint32 {
	var c CRC32
	c.Update(p)
	return c.Sum()
}

// bothStripe is how much of the message SumBoth hands to one checksum
// before the other: small enough that the second reads it from L1.
const bothStripe = 8 << 10

// SumBoth returns the CRC-32 and the Adler-32 of p in one pass over it,
// as the accelerator's checksum units see each data beat once: the two
// are run stripe by stripe, so memory is streamed once, not twice.
func SumBoth(p []byte) (crc, adler uint32) {
	var c CRC32
	var ad Adler32
	both(&c, &ad, p)
	return c.Sum(), ad.Sum()
}

// both absorbs p into c and ad a stripe at a time.
func both(c *CRC32, ad *Adler32, p []byte) {
	for len(p) > bothStripe {
		c.Update(p[:bothStripe])
		ad.Update(p[:bothStripe])
		p = p[bothStripe:]
	}
	c.Update(p)
	ad.Update(p)
}
