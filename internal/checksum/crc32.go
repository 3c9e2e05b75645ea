// Package checksum provides the CRC-32 (IEEE 802.3, used by gzip) and
// Adler-32 (used by zlib) checksums with the incremental interface the
// device model accounts per data beat; the accelerator computes both inline
// with compression and decompression. The CRC is hash/crc32's IEEE path
// (carry-less multiply on amd64, ppc64le and s390x, slicing-by-8
// elsewhere); its test oracles are the bitwise definition, the slicing-by-16
// tables this package used to run and C zlib's values. Adler-32 is
// implemented here.
package checksum

import "hash/crc32"

// CRC32 is an incremental CRC-32 accumulator. The zero value is ready to
// use and corresponds to an empty message.
type CRC32 struct {
	sum uint32
}

// Update absorbs p into the checksum.
func (c *CRC32) Update(p []byte) { c.sum = crc32.Update(c.sum, crc32.IEEETable, p) }

// Sum returns the checksum of everything absorbed so far.
func (c *CRC32) Sum() uint32 { return c.sum }

// Reset returns the accumulator to the empty-message state.
func (c *CRC32) Reset() { c.sum = 0 }

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
