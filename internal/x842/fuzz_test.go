package x842

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip holds its seeds to the round trip under go test; make
// fuzz-smoke explores the law through FuzzCompressEqualsReference, whose
// checkCompress takes back, under an exact budget, everything it encodes.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("12345678"))
	f.Add(bytes.Repeat([]byte("ABCD"), 100))
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<16 {
			src = src[:1<<16]
		}
		comp := Compress(src)
		got, err := Decompress(comp, 0)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("round-trip mismatch")
		}
	})
}

func FuzzDecompressRobust(f *testing.F) {
	comp := Compress(bytes.Repeat([]byte("8bytesat"), 64))
	f.Add(comp)
	bad := append([]byte{}, comp...)
	if len(bad) > 3 {
		bad[3] ^= 0x55
	}
	f.Add(bad)
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Invariant: never panic, never exceed the output bound.
		out, err := Decompress(data, 1<<18)
		if err == nil && len(out) > 1<<18 {
			t.Fatalf("output %d exceeds bound", len(out))
		}
	})
}
