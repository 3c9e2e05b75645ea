package nxzip

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"nxzip/internal/corpus"
)

func TestStreamReaderRoundTrip(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 3<<20, 70)
	var gz bytes.Buffer
	w := acc.NewStreamWriterChunk(&gz, 256<<10)
	w.Write(src)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := acc.NewStreamReader(bytes.NewReader(gz.Bytes()), len(src)+1024)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("mismatch: %d vs %d bytes", len(got), len(src))
	}
	if r.Stats.DeviceCycles <= 0 {
		t.Fatal("no device accounting")
	}
	if r.Stats.OutBytes != len(src) {
		t.Fatalf("out bytes %d", r.Stats.OutBytes)
	}
}

func TestStreamReaderStdlibInput(t *testing.T) {
	// Streams produced by stdlib gzip decode incrementally too.
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.JSONLogs, 1<<20, 71)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Name = "logs.json"
	zw.Write(src)
	zw.Close()
	r := acc.NewStreamReader(bytes.NewReader(gz.Bytes()), 0)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("mismatch")
	}
}

func TestStreamReaderSmallReads(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Source, 200<<10, 72)
	gz, _, err := acc.CompressGzip(src)
	if err != nil {
		t.Fatal(err)
	}
	r := acc.NewStreamReader(bytes.NewReader(gz), 0)
	var got []byte
	buf := make([]byte, 137)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, src) {
		t.Fatal("mismatch")
	}
}

// TestStreamReaderDetectsCorruptTrailer: a damaged trailer fails
// StreamReader in the class it fails Reader in — one trailer check, so one
// set of sentinels.
func TestStreamReaderDetectsCorruptTrailer(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 64<<10, 73)
	gz, _, err := acc.CompressGzip(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, class string
		damage      func([]byte) []byte
	}{
		{"crc", "bad checksum", func(b []byte) []byte { b[len(b)-6] ^= 0xFF; return b }},
		{"isize", "bad length", func(b []byte) []byte { b[len(b)-2] ^= 0xFF; return b }},
		{"cut", "bad framing", func(b []byte) []byte { return b[:len(b)-3] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.damage(append([]byte{}, gz...))
			_, err := io.ReadAll(acc.NewStreamReader(bytes.NewReader(bad), 0))
			_, rerr := io.ReadAll(acc.NewReader(bytes.NewReader(bad)))
			if got, want := readerErrClass(err), readerErrClass(rerr); got != tc.class || want != tc.class {
				t.Fatalf("StreamReader: %s, Reader: %s, want %s", got, want, tc.class)
			}
		})
	}
}

func TestStreamReaderTruncated(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 256<<10, 74)
	gz, _, err := acc.CompressGzip(src)
	if err != nil {
		t.Fatal(err)
	}
	r := acc.NewStreamReader(bytes.NewReader(gz[:len(gz)/2]), 0)
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestStreamReaderEmptyStream(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	gz, _, err := acc.CompressGzip(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := acc.NewStreamReader(bytes.NewReader(gz), 0)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("%d bytes", len(got))
	}
}
