package nxzip

// streamalloc_test.go gates what the stream wrappers allocate on bench/'s
// stream_parallel shape — one 8 MiB stream of mixed classes — in bytes a
// stream: the wrappers' buffers are recycled, so what is left is the
// kernels' own (make bench-alloc runs these without the race detector).

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/testutil"
)

// streamParallelInput is stream_parallel's payload: 64 KiB pieces of
// three classes interleaved.
func streamParallelInput() []byte {
	const piece, n = 64 << 10, 128
	kinds := []corpus.Kind{corpus.Text, corpus.Columnar, corpus.Binary}
	stream := make([]byte, 0, n*piece)
	for i := 0; i < n; i++ {
		stream = append(stream, corpus.Generate(kinds[i%3], piece, int64(i))...)
	}
	return stream
}

// allocatedBytes is the heap a call of f allocates, warm: the second of
// two runs, so pools and lazily sized scratch are in place.
func allocatedBytes(f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestParallelWriterAllocsBounded(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := P9()
	cfg.Device.Engines = 2
	acc := Open(cfg)
	defer acc.Close()
	src := streamParallelInput()
	var sink bytes.Buffer
	stream := func() {
		sink.Reset()
		w := acc.NewParallelWriterChunk(&sink, 256<<10, 2)
		if _, err := w.Write(src); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Three jobs' member buffers, each grown to the largest member it met
	// (the binary pieces do not compress: 0.9 MB), and the engine's output
	// growing past the half a chunk a member is given to start with
	// (0.5 MB): 1.42 MB and 80 allocations measured, a fourth buffer's
	// worth and a fifth more allowed. Chunks are cut where they lie in p;
	// copying each into a job's buffer first came to 2.94 MB and 92, and
	// copying p through a bytes.Buffer before that to 22 MB.
	const boundBytes, boundAllocs = 7 << 18, 96
	if got := allocatedBytes(stream); got > boundBytes {
		t.Errorf("ParallelWriter allocated %d bytes for an %d-byte stream, want at most %d", got, len(src), boundBytes)
	} else {
		t.Logf("%d bytes allocated", got)
	}
	if got := testing.AllocsPerRun(5, stream); got > boundAllocs {
		t.Errorf("ParallelWriter made %.0f allocations for a stream of %d members, want at most %d", got, len(src)/(256<<10), boundAllocs)
	} else {
		t.Logf("%.0f allocations", got)
	}
	if plain, err := io.ReadAll(acc.NewReader(bytes.NewReader(sink.Bytes()))); err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestStreamWriterAllocsBounded(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	acc := openEngines(t, 2)
	src := streamParallelInput()
	var sink bytes.Buffer
	stream := func() {
		sink.Reset()
		w := acc.NewStreamWriterChunk(&sink, 64<<10)
		if _, err := w.Write(src); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Three jobs and their body buffers, each grown to the largest segment
	// it met, the first chunk copied into lead, a wave's channel and two
	// goroutines, and what each of the two waves hands its lanes to run:
	// 19 allocations. A fresh body a segment, doubled on the text and
	// binary pieces, came to 134 allocations and 7.5 MB.
	const boundBytes, boundAllocs = 1 << 20, 24
	if got := allocatedBytes(stream); got > boundBytes {
		t.Errorf("StreamWriter allocated %d bytes for an %d-byte stream, want at most %d", got, len(src), boundBytes)
	} else {
		t.Logf("%d bytes allocated", got)
	}
	if got := testing.AllocsPerRun(5, stream); got > boundAllocs {
		t.Errorf("StreamWriter made %.0f allocations for a stream of %d segments, want at most %d", got, len(src)/(64<<10)+1, boundAllocs)
	} else {
		t.Logf("%.0f allocations", got)
	}
	if plain, err := io.ReadAll(acc.NewStreamReader(bytes.NewReader(sink.Bytes()), 0)); err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestStreamReaderAllocsBounded(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	acc := Open(P9())
	defer acc.Close()
	src := streamParallelInput()
	var member bytes.Buffer
	w := acc.NewStreamWriterChunk(&member, 64<<10)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	plain.Grow(len(src) + bytes.MinRead)
	got := allocatedBytes(func() {
		plain.Reset()
		if _, err := plain.ReadFrom(acc.NewStreamReader(bytes.NewReader(member.Bytes()), 0)); err != nil {
			t.Fatal(err)
		}
	})
	// One read buffer, one result buffer grown to a request's worth, the
	// session's window and pending input. A fresh read buffer per fill and
	// a result grown from nil per request came to 44.9 MB.
	const bound = 4 << 20
	if got > bound {
		t.Errorf("StreamReader allocated %d bytes for an %d-byte stream, want at most %d", got, len(src), bound)
	}
	t.Logf("%d bytes allocated", got)
	if !bytes.Equal(plain.Bytes(), src) {
		t.Fatal("round trip mismatch")
	}
}
