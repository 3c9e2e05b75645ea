package deflate

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/testutil"
)

// stdGzip is compress/gzip's stream of plain, at its default level.
func stdGzip(plain []byte) []byte {
	var b bytes.Buffer
	w := gzip.NewWriter(&b)
	w.Write(plain)
	w.Close()
	return b.Bytes()
}

// errString is an error's text, or "nil".
func errString(err error) string {
	if err == nil {
		return "nil"
	}
	return err.Error()
}

// TestGzipWithoutDstEqualsDst: a gzip decode that sizes its own buffer
// from ISIZE gives the bytes, CRC and error of one handed a Dst — whatever
// the trailer says, and whatever the budget.
func TestGzipWithoutDstEqualsDst(t *testing.T) {
	for _, k := range corpus.Kinds() {
		plain := corpus.Generate(k, 64<<10, 5)
		gz := stdGzip(plain)
		streams := map[string][]byte{"true": gz}
		for name, isize := range map[string]uint32{"zero": 0, "short": uint32(len(plain) - 1),
			"long": uint32(len(plain) + 1), "huge": 0xFFFFFFFF} {
			forged := bytes.Clone(gz)
			binary.LittleEndian.PutUint32(forged[len(forged)-4:], isize)
			streams[name] = forged
		}
		damaged := bytes.Clone(gz)
		damaged[len(damaged)/2] ^= 0x20
		streams["damaged"] = damaged
		for name, s := range streams {
			for _, maxOut := range []int{0, len(plain) - 1, len(plain)} {
				want, wantCRC, wantErr := DecompressGzip(s, InflateOptions{MaxOutput: maxOut, Dst: make([]byte, 0, len(plain)+fastOutMargin)})
				got, gotCRC, gotErr := DecompressGzip(s, InflateOptions{MaxOutput: maxOut})
				if errString(gotErr) != errString(wantErr) || !bytes.Equal(got, want) || gotCRC != wantCRC {
					t.Fatalf("%s/%s/max=%d: %d bytes, crc %08x, err %v; with a Dst %d bytes, crc %08x, err %v",
						k, name, maxOut, len(got), gotCRC, gotErr, len(want), wantCRC, wantErr)
				}
			}
		}
	}
}

// TestGzipLyingISIZEAllocatesWithinTheBound: a 20-byte stream (an empty
// fixed block) whose trailer claims 4 GiB allocates no more than isizeTrust
// times its length for its output, and fails on the length.
func TestGzipLyingISIZEAllocatesWithinTheBound(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	gz := AppendGzipTrailer(append(AppendGzipHeader(nil), 0x03, 0x00), 0, 0)
	binary.LittleEndian.PutUint32(gz[len(gz)-4:], 0xFFFFFFFF)
	if len(gz) != 20 {
		t.Fatalf("stream is %d bytes, want 20", len(gz))
	}
	if _, _, err := DecompressGzip(gz, InflateOptions{}); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v, want ErrBadLength", err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		DecompressGzip(gz, InflateOptions{})
	}
	runtime.ReadMemStats(&after)
	// The output buffer, and the error's text.
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > isizeTrust*uint64(len(gz))+512 {
		t.Fatalf("%d bytes a decode, want at most %d", per, isizeTrust*len(gz)+512)
	}
}

// TestGzipWithoutDstAllocatesOnce: on codec_mix's four classes a gzip
// decode with no Dst makes its output in one allocation, sized from the
// trailer, and no other.
func TestGzipWithoutDstAllocatesOnce(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, k := range []corpus.Kind{corpus.Text, corpus.JSONLogs, corpus.Columnar, corpus.Binary} {
		plain := corpus.Generate(k, 64<<10, 1)
		gz := stdGzip(plain)
		if n := testing.AllocsPerRun(20, func() {
			if out, _, err := DecompressGzip(gz, InflateOptions{}); err != nil || len(out) != len(plain) {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: %v allocations a decode, want 1", k, n)
		}
	}
}
