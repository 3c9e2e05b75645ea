package nxzip

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
)

func streamCompress(t *testing.T, acc *Accelerator, src []byte, chunk int) ([]byte, *StreamWriter) {
	t.Helper()
	var out bytes.Buffer
	w := acc.NewStreamWriterChunk(&out, chunk)
	rng := rand.New(rand.NewSource(9))
	for off := 0; off < len(src); {
		n := rng.Intn(90000) + 1
		if off+n > len(src) {
			n = len(src) - off
		}
		if _, err := w.Write(src[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), w
}

func TestStreamWriterSingleMember(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 3<<20, 11)
	gz, w := streamCompress(t, acc, src, 256<<10)
	if w.Stats.InBytes != len(src) {
		t.Fatalf("in bytes %d", w.Stats.InBytes)
	}
	// stdlib reads it as ONE member.
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	zr.Multistream(false)
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("stdlib single-member mismatch")
	}
	// Our one-shot decompressor reads it.
	got2, _, err := acc.DecompressGzip(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, src) {
		t.Fatal("device decompress mismatch")
	}
}

func TestStreamWriterHistoryImprovesRatio(t *testing.T) {
	// Repetitive data with period > chunk size: only history carry can
	// find the repeats.
	acc := Open(P9())
	defer acc.Close()
	block := corpus.Generate(corpus.Random, 8<<10, 3)
	src := bytes.Repeat(block, 64) // 512 KiB of 8 KiB-period repeats

	single, _ := streamCompress(t, acc, src, 16<<10)

	var multi bytes.Buffer
	mw := acc.NewWriterChunk(&multi, 16<<10)
	mw.Write(src)
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}

	if len(single) >= multi.Len()/2 {
		t.Fatalf("history stream %d not far below multi-member %d", len(single), multi.Len())
	}
}

func TestStreamWriterReplayCostAccounted(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 1<<20, 5)
	_, withHist := streamCompress(t, acc, src, 64<<10)

	var out bytes.Buffer
	plain := acc.NewWriterChunk(&out, 64<<10)
	plain.Write(src)
	plain.Close()

	// History replay burns beats: the single-member stream must cost more
	// device cycles than the member-per-chunk writer.
	if withHist.Stats.DeviceCycles <= plain.Stats.DeviceCycles {
		t.Fatalf("history cycles %d not above plain %d",
			withHist.Stats.DeviceCycles, plain.Stats.DeviceCycles)
	}
}

func TestStreamWriterEmpty(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	var out bytes.Buffer
	w := acc.NewStreamWriter(&out)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := SoftwareGunzip(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("%d bytes from empty stream", len(got))
	}
	// Idempotent close.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("late")); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestStreamWriterFeedsSession(t *testing.T) {
	// The incremental consumer: session-decode the stream as it is
	// produced, chunk by chunk.
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Source, 1<<20, 6)

	var gz bytes.Buffer
	w := acc.NewStreamWriterChunk(&gz, 128<<10)
	w.Write(src)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := gz.Bytes()
	hlen, _, err := deflate.ParseGzipHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	s := deflate.NewSession(deflate.InflateOptions{})
	var got []byte
	body := raw[hlen:]
	for off := 0; off < len(body); off += 10000 {
		end := off + 10000
		if end > len(body) {
			end = len(body)
		}
		out, err := s.Feed(body[off:end], end == len(body))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, out...)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("session mismatch")
	}
	if tail := s.Tail(); len(tail) != 8 {
		t.Fatalf("trailer length %d", len(tail))
	}
}

func TestStreamWriterVsSoftwareRatioClose(t *testing.T) {
	// Single-member streaming with history should land near the one-shot
	// request ratio (within ~10%), since the window is preserved.
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.JSONLogs, 2<<20, 7)
	gz, _ := streamCompress(t, acc, src, 256<<10)
	oneShot, _, err := acc.CompressGzip(src)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(gz)) > 1.1*float64(len(oneShot)) {
		t.Fatalf("stream %d vs one-shot %d: window carry ineffective", len(gz), len(oneShot))
	}
}

// callLimitWriter accepts a fixed number of Write calls, then errors —
// deterministic chunk-boundary failures for partial-write accounting.
type callLimitWriter struct {
	calls int
	err   error
}

func (w *callLimitWriter) Write(p []byte) (int, error) {
	if w.calls <= 0 {
		return 0, w.err
	}
	w.calls--
	return len(p), nil
}

// TestStreamWriterPartialWriteAccounting pins the io.Writer contract on
// submission failure: Write must report how many bytes of p made it into
// successfully emitted chunks, not zero. (The old path returned 0, err
// after emitting earlier chunks of the same call.)
func TestStreamWriterPartialWriteAccounting(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	const chunk = 8
	// Allow the gzip header plus exactly one chunk body, then fail.
	sinkErr := errors.New("sink wedged")
	sink := &callLimitWriter{calls: 2, err: sinkErr}
	w := acc.NewStreamWriterChunk(sink, chunk)

	// 20 bytes = two full chunks (first succeeds, second hits the dead
	// sink) + 4 buffered. Exactly the first chunk's 8 bytes were accepted.
	n, err := w.Write(bytes.Repeat([]byte("x"), 20))
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want sink error", err)
	}
	if n != chunk {
		t.Fatalf("Write accepted %d bytes, want %d (one emitted chunk)", n, chunk)
	}

	// Carried bytes: 5 buffered from an earlier call ride the failed
	// chunk first, so only 3 of p were consumed by it — none emitted,
	// zero accepted.
	sink2 := &callLimitWriter{calls: 1, err: sinkErr} // header only
	w2 := acc.NewStreamWriterChunk(sink2, chunk)
	if n, err := w2.Write([]byte("abcde")); n != 5 || err != nil {
		t.Fatalf("buffering write: n=%d err=%v", n, err)
	}
	n, err = w2.Write(bytes.Repeat([]byte("y"), 10))
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want sink error", err)
	}
	if n != 0 {
		t.Fatalf("Write accepted %d bytes, want 0 (failed chunk was 5 old + 3 new)", n)
	}

	// A writer with a healthy sink is unaffected: full acceptance.
	var ok bytes.Buffer
	w3 := acc.NewStreamWriterChunk(&ok, chunk)
	if n, err := w3.Write(bytes.Repeat([]byte("z"), 20)); n != 20 || err != nil {
		t.Fatalf("healthy write: n=%d err=%v", n, err)
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
}
