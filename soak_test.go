package nxzip

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/testutil"
)

// TestSoakLargeStream pushes 64 MiB through the full streaming path in
// both directions. Skipped under -short.
func TestSoakLargeStream(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	acc := Open(Z15())
	defer acc.Close()
	const total = 64 << 20
	var gz bytes.Buffer
	w := acc.NewStreamWriterChunk(&gz, 1<<20)
	written := 0
	seed := int64(0)
	for written < total {
		chunk := corpus.Generate(corpus.Kinds()[seed%6], 1<<20, seed)
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		written += len(chunk)
		seed++
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d MiB -> %d MiB (ratio %.2f), device time %v",
		written>>20, gz.Len()>>20, w.Stats.Ratio, w.Stats.DeviceTime)

	// Decode incrementally and verify against regenerated data.
	r := acc.NewStreamReader(bytes.NewReader(gz.Bytes()), total+1024)
	seed = 0
	buf := make([]byte, 1<<20)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			t.Fatal(err)
		}
		want := corpus.Generate(corpus.Kinds()[seed%6], 1<<20, seed)
		if !bytes.Equal(buf, want) {
			t.Fatalf("chunk %d mismatch", seed)
		}
		seed++
	}
	if seed != total>>20 {
		t.Fatalf("verified %d chunks, want %d", seed, total>>20)
	}
	testutil.Settled(t, acc.Device())
}

// failingWriter errors after n bytes.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestStreamWriterUnderlyingFailure(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	w := acc.NewStreamWriterChunk(&failingWriter{n: 100}, 4<<10)
	src := corpus.Generate(corpus.Random, 64<<10, 1)
	_, werr := w.Write(src)
	cerr := w.Close()
	if werr == nil && cerr == nil {
		t.Fatal("sink failure never surfaced")
	}
	// Writer stays failed.
	if _, err := w.Write([]byte("more")); err == nil {
		t.Fatal("write after failure accepted")
	}
}

func TestMultiMemberReaderJunkTail(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	gz, _, err := acc.CompressGzip([]byte("member one"))
	if err != nil {
		t.Fatal(err)
	}
	withJunk := append(append([]byte{}, gz...), []byte("JUNKJUNKJUNK")...)
	r := acc.NewReader(bytes.NewReader(withJunk))
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("junk after members accepted by Reader")
	}
	if _, err := GunzipMulti(withJunk); err == nil {
		t.Fatal("junk after members accepted by GunzipMulti")
	}
}

func TestReaderPropagatesSourceError(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	r := acc.NewReader(io.LimitReader(&failingReader{}, 100))
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("source error swallowed")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("io error") }
