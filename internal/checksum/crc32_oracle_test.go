package checksum

import "encoding/binary"

// ieeePoly is the reversed (bit-reflected) IEEE 802.3 polynomial.
const ieeePoly = 0xEDB88320

// slicingCRC32 is the slicing-by-16 CRC-32 this package used to compute,
// kept as an oracle: a table-driven implementation that shares no code
// with hash/crc32's carry-less-multiply path on amd64, ppc64le and s390x.
type slicingCRC32 struct {
	state uint32 // pre-inverted running value
	init  bool
}

var slicingTable [16][256]uint32

func init() {
	for i := 0; i < 256; i++ {
		c := uint32(i)
		for j := 0; j < 8; j++ {
			if c&1 != 0 {
				c = c>>1 ^ ieeePoly
			} else {
				c >>= 1
			}
		}
		slicingTable[0][i] = c
	}
	for i := 0; i < 256; i++ {
		c := slicingTable[0][i]
		for k := 1; k < len(slicingTable); k++ {
			c = slicingTable[0][c&0xFF] ^ c>>8
			slicingTable[k][i] = c
		}
	}
}

func (c *slicingCRC32) Update(p []byte) {
	if !c.init {
		c.state = ^uint32(0)
		c.init = true
	}
	crc := c.state
	// Slicing-by-16 main loop: one 8-byte load per 8 bytes (the p[:16:16]
	// reslice is the only bounds check) and sixteen table reads in four
	// independent XOR chains, of which one takes in the running value and
	// so waits on the last step.
	t := &slicingTable
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
		crc = slicingTable[0][byte(crc)^b] ^ crc>>8
	}
	c.state = crc
}

func (c *slicingCRC32) Sum() uint32 {
	if !c.init {
		return 0
	}
	return ^c.state
}

// slicingSum32 is the slicing-by-16 oracle's one-shot CRC-32.
func slicingSum32(p []byte) uint32 {
	var c slicingCRC32
	c.Update(p)
	return c.Sum()
}

// bitwiseCRC32 is the definition: one polynomial division step per bit, no
// tables. It shares nothing with Update but the polynomial.
func bitwiseCRC32(p []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range p {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			crc = crc>>1 ^ ieeePoly&-(crc&1)
		}
	}
	return ^crc
}
