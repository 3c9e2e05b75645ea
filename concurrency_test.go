package nxzip

// concurrency_test.go exercises the concurrency contract: one
// Accelerator driven from N goroutines (the shared-queue multi-process
// integration story of the paper), the pipelined ParallelWriter, and the
// parallel multi-member Reader. Run with -race.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/testutil"
)

// TestConcurrentAcceleratorRoundTrips drives one Accelerator (with two
// engines behind the shared FIFO, the z15 NXU shape) from 8 goroutines
// doing compress/decompress round trips.
func TestConcurrentAcceleratorRoundTrips(t *testing.T) {
	cfg := P9()
	cfg.Device.Engines = 2
	acc := Open(cfg)
	defer acc.Close()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				src := corpus.Generate(corpus.Kinds()[(g+i)%6], 64<<10, int64(g*100+i))
				gz, _, err := acc.CompressGzip(src)
				if err != nil {
					errs[g] = err
					return
				}
				got, _, err := acc.DecompressGzip(gz)
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(got, src) {
					errs[g] = fmt.Errorf("goroutine %d iter %d: round-trip mismatch", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentSerialWriters runs N independent Writers on one shared
// Accelerator, each from its own goroutine.
func TestConcurrentSerialWriters(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()

	const goroutines = 6
	var wg sync.WaitGroup
	type result struct {
		src []byte
		gz  bytes.Buffer
		err error
	}
	results := make([]result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := &results[g]
			r.src = corpus.Generate(corpus.Kinds()[g%6], 600<<10, int64(g))
			w := acc.NewWriterChunk(&r.gz, 128<<10)
			if _, err := w.Write(r.src); err != nil {
				r.err = err
				return
			}
			r.err = w.Close()
		}(g)
	}
	wg.Wait()
	for g := range results {
		r := &results[g]
		if r.err != nil {
			t.Fatalf("writer %d: %v", g, r.err)
		}
		got, err := GunzipMulti(r.gz.Bytes())
		if err != nil {
			t.Fatalf("writer %d decode: %v", g, err)
		}
		if !bytes.Equal(got, r.src) {
			t.Fatalf("writer %d: stream mismatch", g)
		}
	}
}

// TestParallelWriterRoundTrip checks that the ParallelWriter's output is
// a valid, in-order multi-member stream readable by the stdlib, the
// software helper, and the accelerator's own Reader.
func TestParallelWriterRoundTrip(t *testing.T) {
	cfg := P9()
	cfg.Device.Engines = 4
	acc := Open(cfg)
	defer acc.Close()
	src := corpus.Generate(corpus.Source, 6<<20, 11)

	var comp bytes.Buffer
	w := acc.NewParallelWriterChunk(&comp, 256<<10, 4)
	// Awkward write sizes so chunk boundaries never align with writes.
	for off := 0; off < len(src); {
		n := 333333
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
	if w.Stats.InBytes != len(src) {
		t.Fatalf("stats in %d, want %d", w.Stats.InBytes, len(src))
	}
	if w.Stats.Ratio <= 1 {
		t.Fatalf("ratio %.2f", w.Stats.Ratio)
	}

	// stdlib multistream reader.
	zr, err := gzip.NewReader(bytes.NewReader(comp.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("stdlib multistream mismatch (member order lost?)")
	}
	// Software helper and our Reader.
	if got, err := GunzipMulti(comp.Bytes()); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("GunzipMulti mismatch (err %v)", err)
	}
	got, err = io.ReadAll(acc.NewReader(bytes.NewReader(comp.Bytes())))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("Reader mismatch (err %v)", err)
	}
}

// TestParallelWriterMatchesSerial: same chunking, same table mode — the
// parallel writer must emit byte-identical output to the serial Writer
// (reordering or interleaving would break this).
func TestParallelWriterMatchesSerial(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.JSONLogs, 3<<20, 42)

	var serial bytes.Buffer
	sw := acc.NewWriterChunk(&serial, 512<<10)
	sw.Write(src)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	var parallel bytes.Buffer
	pw := acc.NewParallelWriterChunk(&parallel, 512<<10, 4)
	pw.Write(src)
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatal("parallel writer output differs from serial writer")
	}
}

func TestParallelWriterEmptyInput(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	var comp bytes.Buffer
	w := acc.NewParallelWriter(&comp)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := GunzipMulti(comp.Bytes())
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
}

// TestParallelWriterSinkFailure: a failing sink surfaces on the Write that
// met it and leaves the writer failed, and no goroutine outlives a call —
// not a failed Write, and not the last Write of a writer nobody Closes.
func TestParallelWriterSinkFailure(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Random, 1<<20, 9)
	base := runtime.NumGoroutine()
	w := acc.NewParallelWriterChunk(&failingWriter{n: 100}, 32<<10, 3)
	_, werr := w.Write(src)
	testutil.GoroutinesBack(t, base, "after the failed Write")
	cerr := w.Close()
	if werr == nil || cerr != werr {
		t.Fatalf("Write: %v, Close: %v, want the sink's failure from both", werr, cerr)
	}
	if _, err := w.Write([]byte("more")); err == nil {
		t.Fatal("write after close accepted")
	}

	abandoned := acc.NewParallelWriterChunk(io.Discard, 32<<10, 3)
	if _, err := abandoned.Write(src); err != nil {
		t.Fatal(err)
	}
	testutil.GoroutinesBack(t, base, "after the last Write of a writer never Closed")
}

// TestParallelReaderRoundTrip decodes a many-member stream with worker
// fan-out and checks order, contents, and accounting.
func TestParallelReaderRoundTrip(t *testing.T) {
	cfg := P9()
	cfg.Device.Engines = 4
	acc := Open(cfg)
	defer acc.Close()
	src := corpus.Generate(corpus.HTML, 4<<20, 23)

	var comp bytes.Buffer
	w := acc.NewWriterChunk(&comp, 128<<10) // 32 members
	w.Write(src)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := acc.NewParallelReader(bytes.NewReader(comp.Bytes()), 4)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("parallel reader mismatch")
	}
	if r.Stats.OutBytes != len(src) {
		t.Fatalf("stats out %d, want %d", r.Stats.OutBytes, len(src))
	}
	if r.Stats.InBytes != comp.Len() {
		t.Fatalf("stats in %d, want %d", r.Stats.InBytes, comp.Len())
	}
}

// TestConcurrentMixedTraffic mixes serial writers, parallel writers and
// readers on one Accelerator — the multi-tenant picture of E9.
func TestConcurrentMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-traffic soak")
	}
	cfg := Z15()
	cfg.Device.Engines = 2
	acc := Open(cfg)
	defer acc.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := corpus.Generate(corpus.Kinds()[g%6], 1<<20, int64(g))
			var comp bytes.Buffer
			var werr error
			if g%2 == 0 {
				w := acc.NewParallelWriterChunk(&comp, 128<<10, 3)
				_, werr = w.Write(src)
				if err := w.Close(); werr == nil {
					werr = err
				}
			} else {
				w := acc.NewWriterChunk(&comp, 128<<10)
				_, werr = w.Write(src)
				if err := w.Close(); werr == nil {
					werr = err
				}
			}
			if werr != nil {
				errCh <- werr
				return
			}
			r := acc.NewParallelReader(bytes.NewReader(comp.Bytes()), 2)
			got, err := io.ReadAll(r)
			if err != nil {
				errCh <- err
				return
			}
			if !bytes.Equal(got, src) {
				errCh <- errors.New("mixed-traffic round-trip mismatch")
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	testutil.Settled(t, acc.Device())
}

// TestWriterCloseIdempotent: double Close returns nil (the defer-heavy
// caller pattern), and Write after Close reports ErrWriterClosed rather
// than a fake submission failure — on all three writers.
func TestWriterCloseIdempotent(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	for _, tc := range []struct {
		name string
		open func(out io.Writer) io.WriteCloser
	}{
		{"Writer", func(out io.Writer) io.WriteCloser { return acc.NewWriter(out) }},
		{"ParallelWriter", func(out io.Writer) io.WriteCloser { return acc.NewParallelWriter(out) }},
		{"StreamWriter", func(out io.Writer) io.WriteCloser { return acc.NewStreamWriter(out) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var comp bytes.Buffer
			w := tc.open(&comp)
			if _, err := w.Write([]byte("payload")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("third Close: %v", err)
			}
			if _, err := w.Write([]byte("late")); !errors.Is(err, ErrWriterClosed) {
				t.Fatalf("write after close: %v, want ErrWriterClosed", err)
			}
			// The stream is still valid.
			if got, err := GunzipMulti(comp.Bytes()); err != nil || string(got) != "payload" {
				t.Fatalf("stream corrupted by double close (err %v)", err)
			}
		})
	}
}

// countingFailWriter fails on the Nth Write call.
type countingFailWriter struct {
	calls    int
	failCall int
}

func (c *countingFailWriter) Write(p []byte) (int, error) {
	c.calls++
	if c.calls >= c.failCall {
		return 0, errors.New("sink failed")
	}
	return len(p), nil
}

// TestWriterPartialProgress: when a mid-stream chunk fails, Write must
// report the bytes that actually made it out, not zero.
func TestWriterPartialProgress(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	const chunk = 4 << 10
	w := acc.NewWriterChunk(&countingFailWriter{failCall: 2}, chunk)
	p := corpus.Generate(corpus.Random, 3*chunk, 5)
	n, err := w.Write(p)
	if err == nil {
		t.Fatal("sink failure not reported")
	}
	if n != chunk {
		t.Fatalf("accepted %d bytes, want %d (first chunk emitted before failure)", n, chunk)
	}
	// The writer stays failed with the real error, not ErrWriterClosed.
	if _, err2 := w.Write([]byte("x")); err2 == nil || errors.Is(err2, ErrWriterClosed) {
		t.Fatalf("subsequent write: %v, want the original failure", err2)
	}
	if cerr := w.Close(); cerr == nil {
		t.Fatal("Close after failure returned nil")
	}
}
