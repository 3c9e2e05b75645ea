package deflate

import (
	"bytes"
	"testing"
)

// Fuzz targets double as robustness tests: `go test` runs the seed corpus,
// and `go test -fuzz=FuzzX` explores further. The invariant under fuzzing
// is "no panic, and any successfully decoded stream re-encodes losslessly".

func FuzzDecompress(f *testing.F) {
	// Seeds: valid streams of each block type, plus corruptions.
	for _, src := range [][]byte{
		{}, []byte("a"), []byte("hello hello hello hello"), bytes.Repeat([]byte("xyz"), 500),
	} {
		for _, mode := range []BlockMode{ModeFixed, ModeDynamic, ModeStored} {
			comp, err := Compress(src, Options{Mode: mode})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(comp)
			if len(comp) > 4 {
				bad := append([]byte{}, comp...)
				bad[len(bad)/2] ^= 0x10
				f.Add(bad)
			}
		}
	}
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	for _, gz := range gzipUnwrapSeeds() {
		f.Add(gz)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gzipUnwrap(data)
		out, err := Decompress(data, InflateOptions{MaxOutput: 1 << 20})
		if err != nil {
			return
		}
		// Anything that decodes must round-trip through our encoder.
		comp, err := Compress(out, Options{})
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Decompress(comp, InflateOptions{MaxOutput: 1 << 21})
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(back, out) {
			t.Fatal("lossless invariant violated")
		}
	})
}

func gzipUnwrapSeeds() [][]byte {
	gz, _ := CompressGzip([]byte("seed data for the gzip fuzzer"), Options{})
	return [][]byte{
		gz,
		{0x1F, 0x8B, 8, 0x1F}, // FEXTRA+FNAME+FHCRC flags, truncated
		{0x1F, 0x8B},
	}
}

// gzipUnwrap hands data to the gzip framing: it must never panic (success
// implies a verified CRC).
func gzipUnwrap(data []byte) {
	DecompressGzip(data, InflateOptions{MaxOutput: 1 << 20})
	DecompressGzipMulti(data, InflateOptions{MaxOutput: 1 << 20})
}

// FuzzGzipUnwrap holds its seeds to gzipUnwrap under go test; make
// fuzz-smoke explores it through FuzzDecompress, which hands every input
// to the framing as well as to the inflate core.
func FuzzGzipUnwrap(f *testing.F) {
	for _, gz := range gzipUnwrapSeeds() {
		f.Add(gz)
	}
	f.Fuzz(func(t *testing.T, data []byte) { gzipUnwrap(data) })
}

func FuzzSessionEqualsOneShot(f *testing.F) {
	for _, src := range [][]byte{
		[]byte("session fuzz seed"), bytes.Repeat([]byte("ab"), 4000), make([]byte, 500),
	} {
		comp, _ := Compress(src, Options{BlockSize: 1024})
		f.Add(comp, uint16(97))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk16 uint16) {
		chunk := int(chunk16%500) + 1
		oneShot, oneErr := Decompress(data, InflateOptions{MaxOutput: 1 << 20})

		s := NewSession(InflateOptions{MaxOutput: 1 << 20})
		var streamed []byte
		var sessErr error
		for off := 0; off < len(data) || off == 0; off += chunk {
			end := off + chunk
			final := false
			if end >= len(data) {
				end = len(data)
				final = true
			}
			out, err := s.Feed(data[off:end], final)
			if err != nil {
				sessErr = err
				break
			}
			streamed = append(streamed, out...)
			if s.Done() {
				break
			}
			if final {
				break
			}
		}
		// Agreement: if the one-shot path succeeds, the session must
		// produce the same bytes (it may consume less input when the
		// stream has a tail, which one-shot treats as part of the stream).
		if oneErr == nil && sessErr == nil && s.Done() {
			if !bytes.Equal(streamed, oneShot) {
				t.Fatalf("session %d bytes != one-shot %d bytes", len(streamed), len(oneShot))
			}
		}
	})
}
