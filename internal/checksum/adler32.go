package checksum

import "encoding/binary"

// Adler-32 (RFC 1950 §8.2), the checksum embedded in zlib streams.

const (
	adlerMod = 65521
	// adlerNMax is the largest n such that 255*n*(n+1)/2 + (n+1)*(mod-1)
	// fits in a uint32; sums can be deferred that long before reduction.
	adlerNMax = 5552

	lanes       = 0x00FF00FF00FF00FF
	laneOnes    = 0x0001000100010001
	evenWeights = 8<<48 | 6<<32 | 4<<16 | 2 // lane i meets the weight in lane 3-i in the product's top lane
	oddWeights  = 7<<48 | 5<<32 | 3<<16 | 1
)

// Adler32 is an incremental Adler-32 accumulator. The zero value is ready
// to use and corresponds to an empty message (value 1), as after Reset.
type Adler32 struct {
	a, b uint32
	live bool
}

// NewAdler32 returns an accumulator in the empty-message state.
func NewAdler32() *Adler32 {
	ad := &Adler32{}
	ad.Reset()
	return ad
}

// Reset returns the accumulator to the empty-message state (value 1).
func (ad *Adler32) Reset() {
	ad.a, ad.b = 1, 0
	ad.live = true
}

// Update absorbs p.
func (ad *Adler32) Update(p []byte) {
	if !ad.live {
		ad.Reset()
	}
	a, b := ad.a, ad.b
	for len(p) > 0 {
		chunk := p
		if len(chunk) > adlerNMax {
			chunk = chunk[:adlerNMax]
		}
		p = p[len(chunk):]
		// Eight bytes per step, as 16-bit lanes of one load: over bytes
		// x0..x7, a grows by their sum and b by 8a + 8x0 + 7x1 + ... + x7.
		// A multiply sums the lanes (times their weights) into its top
		// lane; no lane can carry, the largest being 4*255*8.
		for len(chunk) >= 8 {
			v := binary.LittleEndian.Uint64(chunk[:8:8])
			even, odd := v&lanes, v>>8&lanes // x0 x2 x4 x6 and x1 x3 x5 x7
			b += 8*a + uint32((even*evenWeights+odd*oddWeights)>>48)
			a += uint32((even + odd) * laneOnes >> 48)
			chunk = chunk[8:]
		}
		for _, x := range chunk {
			a += uint32(x)
			b += a
		}
		a %= adlerMod
		b %= adlerMod
	}
	ad.a, ad.b = a, b
}

// Sum returns the Adler-32 of everything absorbed so far.
func (ad *Adler32) Sum() uint32 {
	if !ad.live {
		return 1
	}
	return ad.b<<16 | ad.a
}

// SumAdler32 is a convenience one-shot Adler-32.
func SumAdler32(p []byte) uint32 {
	ad := NewAdler32()
	ad.Update(p)
	return ad.Sum()
}
