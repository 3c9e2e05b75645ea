package nxzip

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/faultinject"
	"nxzip/internal/testutil"
	"nxzip/internal/vas"
)

// openEngines is a P9 whose device has the given number of engines: the
// segments one Write holds run that many at a time.
func openEngines(t *testing.T, engines int) *Accelerator {
	t.Helper()
	cfg := P9()
	cfg.Device.Engines = engines
	acc := Open(cfg)
	t.Cleanup(acc.Close)
	return acc
}

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
	// find the repeats. What a segment finds in its window does not depend
	// on what else is in flight: two engines, the same ratio.
	block := corpus.Generate(corpus.Random, 8<<10, 3)
	src := bytes.Repeat(block, 64) // 512 KiB of 8 KiB-period repeats
	var ratios []float64
	for _, engines := range []int{1, 2} {
		acc := openEngines(t, engines)
		single, w := streamCompress(t, acc, src, 16<<10)

		var multi bytes.Buffer
		mw := acc.NewWriterChunk(&multi, 16<<10)
		mw.Write(src)
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}

		if len(single) >= multi.Len()/2 {
			t.Fatalf("%d engines: history stream %d not far below multi-member %d", engines, len(single), multi.Len())
		}
		ratios = append(ratios, w.Stats.Ratio)
	}
	if ratios[0] != ratios[1] {
		t.Fatalf("ratio %v on one engine, %v on two", ratios[0], ratios[1])
	}
}

func TestStreamWriterReplayCostAccounted(t *testing.T) {
	src := corpus.Generate(corpus.Text, 1<<20, 5)
	var cycles []int64
	for _, engines := range []int{1, 2} {
		acc := openEngines(t, engines)
		_, withHist := streamCompress(t, acc, src, 64<<10)

		var out bytes.Buffer
		plain := acc.NewWriterChunk(&out, 64<<10)
		plain.Write(src)
		plain.Close()

		// History replay burns beats: the single-member stream must cost more
		// device cycles than the member-per-chunk writer.
		if withHist.Stats.DeviceCycles <= plain.Stats.DeviceCycles {
			t.Fatalf("%d engines: history cycles %d not above plain %d",
				engines, withHist.Stats.DeviceCycles, plain.Stats.DeviceCycles)
		}
		cycles = append(cycles, withHist.Stats.DeviceCycles)
	}
	// The replay beats are charged a segment, whatever else is in flight.
	if cycles[0] != cycles[1] {
		t.Fatalf("%d device cycles on one engine, %d on two", cycles[0], cycles[1])
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

// hookSink records what reaches it. It runs hook as its n-th Write arrives
// — the gzip header is the first — on the caller's goroutine, so mid-wave:
// later segments are in flight behind the body being written. With err
// set it accepts limit Writes and answers err from then on.
type hookSink struct {
	buf    bytes.Buffer
	writes int
	limit  int
	err    error
	hook   func(n int)
}

func (s *hookSink) Write(p []byte) (int, error) {
	if s.err != nil && s.writes >= s.limit {
		return 0, s.err
	}
	s.writes++
	if s.hook != nil {
		s.hook(s.writes)
	}
	return s.buf.Write(p)
}

// TestStreamWriterFailoverInFlight: segments in flight each carry a copy
// of the stream's pin, and the first to leave a failed device moves the
// stream — once, not back and forth — so a device lost mid-wave costs the
// stream nothing but the re-dispatches, whatever else is failing around
// it; the admission gate sees every segment in flight; and no Write leaves
// a goroutine behind. Run under -race by make bench-alloc.
func TestStreamWriterFailoverInFlight(t *testing.T) {
	const chunk, segments = 16 << 10, 24
	src := streamWriterInput(segments*chunk + chunk/2)
	shape := func() NodeConfig {
		cfg := P9Node(2)
		cfg.TableMode = TableFixed
		for i := range cfg.Shape.Devices {
			cfg.Shape.Devices[i].Config.Engines = 2
		}
		return cfg
	}
	_, clean, _ := openChaosNode(t, shape(), faultinject.Profile{})
	var want bytes.Buffer
	w := clean.NewStreamWriterChunk(&want, chunk)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// checkStream: both readers take the stream back, and it is the
	// fault-free run's byte for byte unless a segment fell back to the
	// software matcher — identical devices emit identical segments.
	checkStream := func(t *testing.T, w *StreamWriter, got []byte) {
		t.Helper()
		checkStreamInflates(t, clean, got, src)
		if !w.Stats.Degraded && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("no segment fell back to software, yet the stream differs from the fault-free run's")
		}
		t.Logf("%d re-dispatches, degraded: %v", w.Stats.Redispatches, w.Stats.Degraded)
	}

	t.Run("pinned device offlined mid-wave", func(t *testing.T) {
		_, acc, injs := openChaosNode(t, shape(), faultinject.Profile{})
		base := runtime.NumGoroutine()
		sink := &hookSink{}
		w := acc.NewStreamWriterChunk(sink, chunk)
		first := w.ctx.Load()
		last, moves := first, 0
		sink.hook = func(n int) {
			if n == 4 {
				injs[acc.nctx.IndexOf(first)].SetOffline(true)
			}
			if now := w.ctx.Load(); now != last {
				last, moves = now, moves+1
			}
		}
		if n, err := w.Write(src); n != len(src) || err != nil {
			t.Fatalf("Write: %d, %v", n, err)
		}
		testutil.GoroutinesBack(t, base, "after Write")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if last = w.ctx.Load(); last == first || moves > 1 {
			t.Fatalf("pin moved %d times and ended on the dead device: %v", moves, last == first)
		}
		// The segments that had taken the old pin when it died — no more
		// than the wave holds — each failed there once; none went back.
		if r := w.Stats.Redispatches; r < 1 || r > 3 {
			t.Fatalf("%d re-dispatches, want 1..3", r)
		}
		if w.Stats.Degraded {
			t.Fatal("stream degraded to software with a healthy device available")
		}
		checkStream(t, w, sink.buf.Bytes())
	})

	t.Run("heavy faults and an outage", func(t *testing.T) {
		heavy, err := faultinject.ParseProfile("heavy")
		if err != nil {
			t.Fatal(err)
		}
		_, acc, injs := openChaosNode(t, shape(), heavy)
		base := runtime.NumGoroutine()
		sink := &hookSink{}
		w := acc.NewStreamWriterChunk(sink, chunk)
		sink.hook = func(n int) {
			if n == 6 {
				injs[acc.nctx.IndexOf(w.ctx.Load())].SetOffline(true)
			}
		}
		for rest := src; len(rest) > 0; {
			n := min(7*chunk+100, len(rest))
			if got, err := w.Write(rest[:n]); got != n || err != nil {
				t.Fatalf("Write: %d of %d, %v", got, n, err)
			}
			testutil.GoroutinesBack(t, base, "after Write")
			rest = rest[n:]
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		checkStream(t, w, sink.buf.Bytes())
	})

	t.Run("one admission slot", func(t *testing.T) {
		node, err := OpenNode(shape())
		if err != nil {
			t.Fatal(err)
		}
		acc := node.View()
		defer acc.Close()
		// One slot left and a queue that nothing times out of: the segments
		// of a wave wait for each other at the gate, none is turned away.
		// The slot is one of two, the other held by another tenant, and
		// the stream's tenant is weighted to a quota of both: a tenant
		// that alone holds every slot of a gate is at its quota, and the
		// gate sheds a tenant at its quota where it queues one below it —
		// what a ParallelWriter's second worker is told as well.
		ctrl := node.EnableAdmission(admission.Config{MaxInflight: 2,
			MaxWait: time.Minute, QueueTarget: time.Minute, QueueInterval: time.Minute})
		acc.SetQuotaWeight(3)
		held, _, err := ctrl.Admit(admission.AdmitRequest{Class: admission.Interactive, Tenant: 999})
		if err != nil {
			t.Fatal(err)
		}
		defer held.Release()
		sink := &hookSink{}
		w := acc.NewStreamWriterChunk(sink, chunk)
		if n, err := w.Write(src); n != len(src) || err != nil {
			t.Fatalf("Write: %d, %v", n, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st := ctrl.StatusNow()
		if st.Shed != [admission.ClassCount]int64{} || st.Degraded != [admission.ClassCount]int64{} || st.Evicted != 0 {
			t.Fatalf("gate turned segments away: %+v", st)
		}
		if got := st.Admitted[admission.Interactive] - 1; got != segments+1 {
			t.Fatalf("gate admitted %d requests of a stream of %d segments", got, segments+1)
		}
		checkStream(t, w, sink.buf.Bytes())
	})
}

// waveWriter is one of the three stream writers as the failure rows drive
// it: lanes is what bounds its pieces in flight (the device's engines under
// a StreamWriter, the workers of a ParallelWriter, one for a Writer), header
// how many sink Writes come before the first piece, and closeWindows takes
// the windows its pieces are pasted through away mid-stream.
type waveWriter struct {
	name         string
	lanes        int
	header       int
	open         func(acc *Accelerator, out io.Writer) io.WriteCloser
	closeWindows func(acc *Accelerator, w io.WriteCloser)
}

func waveWriters() []waveWriter {
	view := func(acc *Accelerator, _ io.WriteCloser) { acc.Close() }
	writers := []waveWriter{{name: "Writer", lanes: 1, closeWindows: view,
		open: func(acc *Accelerator, out io.Writer) io.WriteCloser { return acc.NewWriterChunk(out, 8) }}}
	for _, lanes := range []int{1, 2, 4} {
		writers = append(writers,
			// A StreamWriter, under the name its rows had before the others'.
			waveWriter{name: fmt.Sprintf("engines=%d", lanes), lanes: lanes, header: 1, closeWindows: view,
				open: func(acc *Accelerator, out io.Writer) io.WriteCloser { return acc.NewStreamWriterChunk(out, 8) }},
			waveWriter{name: fmt.Sprintf("ParallelWriter/workers=%d", lanes), lanes: lanes,
				open: func(acc *Accelerator, out io.Writer) io.WriteCloser {
					return acc.NewParallelWriterChunk(out, 8, lanes)
				},
				// The workers' windows are the writer's own, not the view's.
				closeWindows: func(_ *Accelerator, w io.WriteCloser) {
					for _, nctx := range w.(*ParallelWriter).lanes {
						nctx.Close()
					}
				}})
	}
	return writers
}

// TestStreamWriterPartialWriteWaves extends the partial-write contract to
// a Write that holds a wave, for all three writers: wherever the wave
// fails, Write has accepted the bytes of p in the pieces — segments or
// members — emitted before the failure, not the carried bytes that opened
// the first; nothing of a later piece has reached the sink; the writer is
// dead, every later call answering the same error; and no goroutine is
// left when the Write returns.
func TestStreamWriterPartialWriteWaves(t *testing.T) {
	const chunk, pieces = 8, 12 // more than four lanes have in flight
	src := corpus.Generate(corpus.Text, pieces*chunk+3, 17)
	sinkErr := errors.New("sink wedged")
	for _, ww := range waveWriters() {
		var good bytes.Buffer
		w := ww.open(openEngines(t, 1), &good)
		w.Write(src)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// run writes src[:carried], then the rest in the Write under test;
		// closeAt, if not zero, is the body whose arrival closes the windows.
		run := func(t *testing.T, sink *hookSink, carried, closeAt int) (int, error) {
			t.Helper()
			acc := openEngines(t, ww.lanes)
			w := ww.open(acc, sink)
			sink.hook = func(n int) {
				if closeAt > 0 && n == ww.header+closeAt {
					ww.closeWindows(acc, w)
				}
			}
			if n, err := w.Write(src[:carried]); n != carried || err != nil {
				t.Fatalf("buffering write: n=%d err=%v", n, err)
			}
			base := runtime.NumGoroutine()
			n, err := w.Write(src[carried:])
			testutil.GoroutinesBack(t, base, "after the failed Write")
			if _, again := w.Write([]byte("more")); again != err {
				t.Fatalf("the Write after the failure: %v, the failure was %v", again, err)
			}
			if again := w.Close(); again != err || err == nil {
				t.Fatalf("Close after the failure: %v, the failure was %v", again, err)
			}
			testutil.GoroutinesBack(t, base, "after Close")
			bodies := sink.writes - ww.header
			if want := max(0, bodies*chunk-carried); n != want {
				t.Fatalf("Write accepted %d bytes with %d pieces emitted and %d bytes carried in, want %d", n, bodies, carried, want)
			}
			if !bytes.HasPrefix(good.Bytes(), sink.buf.Bytes()) {
				t.Fatalf("the sink holds something other than the first %d pieces", bodies)
			}
			return bodies, err
		}
		for _, carried := range []int{0, 5} {
			for k := 0; k < pieces; k++ {
				t.Run(fmt.Sprintf("%s/carried=%d/sink dies at body %d", ww.name, carried, k+1), func(t *testing.T) {
					bodies, err := run(t, &hookSink{limit: ww.header + k, err: sinkErr}, carried, 0)
					if !errors.Is(err, sinkErr) || bodies != k {
						t.Fatalf("err = %v after %d bodies, want the sink's after %d", err, bodies, k)
					}
				})
			}
			// The device goes: the windows close as body k is written.
			// Pieces already pasted complete, the next is refused.
			for _, k := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/carried=%d/device error after body %d", ww.name, carried, k), func(t *testing.T) {
					bodies, err := run(t, &hookSink{}, carried, k)
					if !errors.Is(err, vas.ErrWindowClosed) || bodies < k || bodies >= pieces {
						t.Fatalf("err = %v after %d bodies, want a closed window after %d or a few more", err, bodies, k)
					}
				})
			}
		}
	}
}

// TestStreamWriterReadFrom: io.Copy finds ReadFrom, which reads a segment
// an engine at a time, so a copied stream is the bytes of one Write of it.
func TestStreamWriterReadFrom(t *testing.T) {
	const chunk = 4 << 10
	src := streamWriterInput(9*chunk + chunk/2)
	var _ io.ReaderFrom = (*StreamWriter)(nil)
	for _, engines := range []int{1, 2} {
		acc := openEngines(t, engines)
		var want bytes.Buffer
		w := acc.NewStreamWriterChunk(&want, chunk)
		w.Write(src)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		wantStats := w.Stats
		readers := map[string]func() io.Reader{
			"plain":         func() io.Reader { return struct{ io.Reader }{bytes.NewReader(src)} },
			"one byte":      func() io.Reader { return iotest.OneByteReader(bytes.NewReader(src)) },
			"data with EOF": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(src)) },
		}
		for name, open := range readers {
			var got bytes.Buffer
			w := acc.NewStreamWriterChunk(&got, chunk)
			if _, err := w.Write(src[:100]); err != nil { // ReadFrom picks up mid-chunk
				t.Fatal(err)
			}
			r := open()
			io.CopyN(io.Discard, r, 100)
			n, err := io.Copy(w, r)
			if n != int64(len(src)-100) || err != nil {
				t.Fatalf("%d engines, %s reader: copied %d of %d, err %v", engines, name, n, len(src)-100, err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) || w.Stats != wantStats {
				t.Fatalf("%d engines, %s reader: the copied stream is not the written one", engines, name)
			}
		}
		// A reader's own failure comes back with what was copied before it.
		var got bytes.Buffer
		w = acc.NewStreamWriterChunk(&got, chunk)
		broken := errors.New("source wedged")
		n, err := io.Copy(w, struct{ io.Reader }{io.MultiReader(bytes.NewReader(src[:3*chunk+7]), iotest.ErrReader(broken))})
		if n != 3*chunk+7 || !errors.Is(err, broken) {
			t.Fatalf("%d engines: copied %d, err %v, want %d and the reader's error", engines, n, err, 3*chunk+7)
		}
	}
}
