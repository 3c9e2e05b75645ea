package lz4

import (
	"bytes"
	"testing"
)

// fuzzRoundTrip asserts compress→decompress identity, within the bound.
func fuzzRoundTrip(t *testing.T, src []byte) {
	if len(src) > 1<<16 {
		src = src[:1<<16]
	}
	comp := Compress(src)
	if len(comp) > CompressBound(len(src)) {
		t.Fatalf("compressed %d exceeds bound %d", len(comp), CompressBound(len(src)))
	}
	got, err := Decompress(comp, 0)
	if err != nil {
		t.Fatalf("decompress own output: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
	}
}

// FuzzRoundTrip holds its seeds to fuzzRoundTrip under go test; make
// fuzz-smoke explores the same law through FuzzBlockDecode.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("1234567890123"))
	f.Add(bytes.Repeat([]byte("ABCD"), 100))
	f.Add(bytes.Repeat([]byte{0}, 300))
	f.Fuzz(fuzzRoundTrip)
}

// FuzzBlockDecode feeds arbitrary bytes to the block decoder: it must
// never panic and never produce output beyond the stated budget. The same
// bytes are then a source: fuzzRoundTrip.
func FuzzBlockDecode(f *testing.F) {
	f.Add(Compress([]byte("seed corpus for the lz4 decoder")))
	f.Add(Compress(bytes.Repeat([]byte{7}, 1000)))
	f.Add([]byte{0x10, 'a', 0x01, 0x00})
	f.Add([]byte{0xF0, 0xff, 0xff, 0x00})
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, blk []byte) {
		const budget = 1 << 18
		out, err := Decompress(blk, budget)
		if err == nil && len(out) > budget {
			t.Fatalf("%d bytes escaped the %d budget", len(out), budget)
		}
		fuzzRoundTrip(t, blk)
	})
}
