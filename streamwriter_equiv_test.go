package nxzip

// streamwriter_equiv_test.go holds StreamWriter to the submit loop it had
// while it ran one segment at a time: refStreamWriter is that writer, kept
// as the test-only oracle, and for every stream, chunk size, device, table
// mode and sequence of Write sizes below StreamWriter must emit the
// oracle's bytes and account the oracle's Stats — segment for segment,
// cycle for cycle — whatever the device's engine count lets it run at once.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"nxzip/internal/checksum"
	"nxzip/internal/corpus"
	"nxzip/internal/lz77"
	"nxzip/internal/nx"
	"nxzip/internal/testutil"
)

// refStreamWriter is the StreamWriter of the commit before segments ran
// side by side (40ea934): its fields, start, Write, submit, appendWindow
// and Close verbatim but for the type's name.
type refStreamWriter struct {
	acc     *Accelerator
	ctx     *nx.Context // pinned device context (history stays put)
	out     io.Writer
	chunk   int
	buf     []byte
	history []byte
	crc     checksum.CRC32
	isize   uint32
	started bool
	closed  bool
	err     error

	// Stats accumulates device accounting across requests.
	Stats Metrics
}

func refNewStreamWriterChunk(a *Accelerator, out io.Writer, chunk int) *refStreamWriter {
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return &refStreamWriter{acc: a, ctx: a.nctx.PickSticky(), out: out, chunk: chunk}
}

// refGzipHeader is the canonical member header, spelled out here because
// the reference does not frame through the code it is held against.
var refGzipHeader = []byte{0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255}

func (w *refStreamWriter) start() error {
	if w.started {
		return nil
	}
	if _, err := w.out.Write(refGzipHeader); err != nil {
		w.err = err
		return err
	}
	w.started = true
	return nil
}

func (w *refStreamWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, ErrWriterClosed
	}
	// Bytes already buffered from previous calls; chunks drain these
	// oldest-first, so they tell us how much of a failed chunk came from
	// earlier Writes rather than from p.
	carried := len(w.buf)
	accepted := 0
	for {
		need := w.chunk - len(w.buf)
		take := len(p) - accepted
		if take > need {
			take = need
		}
		w.buf = append(w.buf, p[accepted:accepted+take]...)
		accepted += take
		if len(w.buf) < w.chunk {
			return accepted, nil
		}
		if err := w.submit(w.buf[:w.chunk], false); err != nil {
			// The failed chunk held min(carried, chunk) old bytes; the
			// rest were p's — those were consumed but not emitted, so
			// they don't count as accepted.
			fromOld := carried
			if fromOld > w.chunk {
				fromOld = w.chunk
			}
			return accepted - (w.chunk - fromOld), err
		}
		w.buf = append(w.buf[:0], w.buf[w.chunk:]...)
		carried -= w.chunk
		if carried < 0 {
			carried = 0
		}
	}
}

func (w *refStreamWriter) submit(chunk []byte, final bool) error {
	if err := w.start(); err != nil {
		return err
	}
	var m Metrics
	body, err := w.acc.do(w.acc.nctx, &w.ctx, op{kind: opSegment, name: "stream-compress", format: FormatRaw,
		src: chunk, history: w.history, notFinal: !final}, &m)
	if err != nil {
		w.err = err
		return err
	}
	if _, err := w.out.Write(body); err != nil {
		w.err = err
		return err
	}
	w.crc.Update(chunk)
	w.isize += uint32(len(chunk))
	w.Stats.add(&m)
	w.acc.met.streamSegments.Inc()

	// Maintain the history window: the last 32 KiB of the logical stream.
	w.history = refAppendWindow(w.history, chunk)
	return nil
}

func refAppendWindow(window, chunk []byte) []byte {
	window = append(window, chunk...)
	if len(window) > lz77.WindowSize {
		window = append(window[:0], window[len(window)-lz77.WindowSize:]...)
	}
	return window
}

func (w *refStreamWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	if err := w.submit(w.buf, true); err != nil {
		return err
	}
	w.buf = nil
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[0:4], w.crc.Sum())
	binary.LittleEndian.PutUint32(trailer[4:8], w.isize)
	if _, err := w.out.Write(trailer[:]); err != nil {
		w.err = err
		return err
	}
	w.closed = true
	if w.Stats.InBytes > 0 && w.Stats.OutBytes > 0 {
		w.Stats.Ratio = float64(w.Stats.InBytes) / float64(w.Stats.OutBytes)
	}
	return nil
}

// writeSplit hands src to w in Writes of the given sizes, cycled until src
// runs out (none: one Write of everything), then closes it.
func writeSplit(w io.WriteCloser, src []byte, sizes []int) error {
	if len(sizes) == 0 {
		sizes = []int{len(src)}
	}
	for i := 0; len(src) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(src))
		if got, err := w.Write(src[:n]); err != nil || got != n {
			return fmt.Errorf("Write of %d bytes took %d: %v", n, got, err)
		}
		src = src[n:]
	}
	return w.Close()
}

// refStreamWrite is one stream through the oracle: its bytes, its Stats
// and how many segments it counted.
func refStreamWrite(acc *Accelerator, src []byte, chunk int, sizes []int) ([]byte, Metrics, int64, error) {
	var out bytes.Buffer
	before := acc.met.streamSegments.Value()
	w := refNewStreamWriterChunk(acc, &out, chunk)
	err := writeSplit(w, src, sizes)
	return out.Bytes(), w.Stats, acc.met.streamSegments.Value() - before, err
}

// checkStreamWriterEqualsSerial is the one comparison the table and the
// fuzz target make.
func checkStreamWriterEqualsSerial(t *testing.T, acc *Accelerator, src []byte, chunk int, sizes []int) {
	t.Helper()
	want, wantStats, wantSegs, err := refStreamWrite(acc, src, chunk, sizes)
	if err != nil {
		t.Fatalf("serial loop: %v", err)
	}

	var out bytes.Buffer
	before := acc.met.streamSegments.Value()
	w := acc.NewStreamWriterChunk(&out, chunk)
	if err := writeSplit(w, src, sizes); err != nil {
		t.Fatal(err)
	}
	segs := acc.met.streamSegments.Value() - before
	got := out.Bytes()

	if !bytes.Equal(got, want) {
		t.Fatalf("%d bytes differ from the serial loop's %d", len(got), len(want))
	}
	// Every field: bytes, cycles and time summed over the segments, the
	// ratio Close derives, and no recovery cost on a healthy device.
	if w.Stats != wantStats {
		t.Fatalf("Stats %+v, serial loop %+v", w.Stats, wantStats)
	}
	if w.Stats.InBytes != len(src) || w.Stats.OutBytes != len(got)-len(refGzipHeader)-8 {
		t.Fatalf("Stats in/out %d/%d, stream is %d/%d", w.Stats.InBytes, w.Stats.OutBytes, len(src), len(got)-len(refGzipHeader)-8)
	}
	if inStream := int64(len(src)/chunk + 1); segs != wantSegs || segs != inStream {
		t.Fatalf("%d segments, serial loop %d, stream holds %d", segs, wantSegs, inStream)
	}

	checkStreamInflates(t, acc, got, src)
}

// checkStreamInflates: stream is one member to compress/gzip with nothing
// after it, and it and a StreamReader on acc both inflate it to src.
func checkStreamInflates(t *testing.T, acc *Accelerator, stream, src []byte) {
	t.Helper()
	rd := bytes.NewReader(stream)
	zr, err := gzip.NewReader(rd)
	if err != nil {
		t.Fatal(err)
	}
	zr.Multistream(false)
	if plain, err := io.ReadAll(zr); err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("compress/gzip: %d bytes of %d, err %v", len(plain), len(src), err)
	}
	if rd.Len() != 0 {
		t.Fatalf("%d bytes follow the member", rd.Len())
	}
	if plain, err := io.ReadAll(acc.NewStreamReader(bytes.NewReader(stream), 0)); err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("StreamReader: %d bytes of %d, err %v", len(plain), len(src), err)
	}
}

// streamWriterChunks straddles the history window: below it a segment's
// window reaches back over several segments, at and above it the window is
// the tail of the segment before.
var streamWriterChunks = []int{8, 2 << 10, 6 << 10, 20 << 10, 32 << 10, 64 << 10, 256 << 10}

// streamWriterInput is n bytes of three classes interleaved in 16 KiB
// pieces, so segments of every chunk size cross a change of statistics.
func streamWriterInput(n int) []byte {
	const piece = 16 << 10
	kinds := []corpus.Kind{corpus.Text, corpus.Columnar, corpus.Binary}
	var stream []byte
	for i := 0; len(stream) < n; i++ {
		stream = append(stream, corpus.Generate(kinds[i%3], piece, int64(i))...)
	}
	return stream[:n]
}

// streamWriterSegments is how many whole chunks the table's stream holds:
// enough that one Write of it cuts segments whose window is a slice of p
// (they start past the window size) after the ones whose window is
// stitched, and at least four — within half a MiB, which the largest chunk
// fills with two. The 8-byte chunk stops at 24 segments: each replays up to
// a full window through the LZ stage.
func streamWriterSegments(chunk int) int {
	if chunk < 1<<10 {
		return 24
	}
	return min(max(4, (lz77.WindowSize+3*chunk-1)/chunk), 512<<10/chunk)
}

type streamWriterCase struct {
	name  string
	n     int   // stream length
	sizes []int // Write sizes, cycled; none: one Write
}

// streamWriterCases is the table's write patterns for one chunk size. The
// stream is whole chunks — the final segment is empty — but for the case
// that says otherwise.
func streamWriterCases(chunk int) []streamWriterCase {
	n := streamWriterSegments(chunk) * chunk
	rng := rand.New(rand.NewSource(9))
	random := make([]int, 16)
	for i := range random {
		random[i] = rng.Intn(90000) + 1 // as streamCompress draws them
	}
	return []streamWriterCase{
		{name: "one Write", n: n},
		{name: "1-byte writes", n: n, sizes: []int{1}},
		{name: "chunk-1, chunk, chunk+1", n: n, sizes: []int{chunk - 1, chunk, chunk + 1}},
		{name: "3*chunk+7", n: n, sizes: []int{3*chunk + 7}},
		{name: "random sizes", n: n, sizes: random},
		{name: "empty stream", n: 0},
		{name: "short last segment", n: n - chunk + chunk/3 + 1},
	}
}

// streamWriterAccelerators opens one accelerator per device, table mode and
// engine count of the table — or, with all unset, per engine count on one
// device and table mode; name labels each.
func streamWriterAccelerators(t testing.TB, all bool, each func(name string, acc *Accelerator)) {
	devices := []struct {
		name string
		cfg  func() Config
	}{{"P9", P9}, {"z15", Z15}}
	tables := []struct {
		name string
		mode TableMode
	}{{"dynamic", TableDynamic}, {"fixed", TableFixed}, {"canned", TableCanned}}
	if !all {
		devices, tables = devices[:1], tables[:1]
	}
	for _, dev := range devices {
		for _, table := range tables {
			for _, engines := range []int{1, 2, 4} {
				cfg := dev.cfg()
				cfg.Device.Engines = engines
				cfg.TableMode = table.mode
				acc := Open(cfg)
				if table.mode == TableCanned {
					if err := acc.TrainTable(corpus.Generate(corpus.Text, 64<<10, 21)); err != nil {
						t.Fatal(err)
					}
				}
				each(fmt.Sprintf("%s/%s/engines=%d", dev.name, table.name, engines), acc)
			}
		}
	}
}

func TestStreamWriterEqualsSerial(t *testing.T) {
	const largest = 256 << 10
	input := streamWriterInput(streamWriterSegments(largest) * largest)
	// The race detector is here for what the segments of a wave share,
	// which is the same on every device and table: one of each.
	streamWriterAccelerators(t, !testutil.RaceEnabled, func(name string, acc *Accelerator) {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // each accelerator is its own device model
			defer acc.Close()
			for _, chunk := range streamWriterChunks {
				for _, tc := range streamWriterCases(chunk) {
					t.Run(fmt.Sprintf("chunk=%d/%s", chunk, tc.name), func(t *testing.T) {
						checkStreamWriterEqualsSerial(t, acc, input[:tc.n], chunk, tc.sizes)
					})
				}
			}
		})
	})
}

func FuzzStreamWriterEqualsSerial(f *testing.F) {
	var accs []*Accelerator
	streamWriterAccelerators(f, true, func(_ string, acc *Accelerator) {
		accs = append(accs, acc)
		f.Cleanup(acc.Close)
	})
	// The table's patterns at the chunk sizes up to the window, on streams
	// cut short of the table's: a seed is mutated whole.
	input := streamWriterInput(96 << 10)
	for i, chunk := range streamWriterChunks {
		if chunk > lz77.WindowSize {
			break
		}
		for k, tc := range streamWriterCases(chunk) {
			var splits []byte
			for _, s := range tc.sizes {
				splits = binary.LittleEndian.AppendUint32(splits, uint32(s))
			}
			f.Add(input[:min(tc.n, len(input))], uint32(chunk), splits, uint8(7*i+k))
		}
	}
	f.Fuzz(func(t *testing.T, src []byte, chunk uint32, splits []byte, which uint8) {
		// A chunk the fuzzer cannot raise past 256 KiB nor lower to where
		// the stream is more than 64 segments: each is two device requests
		// that may replay a full window.
		c := max(1+int(chunk%(256<<10)), len(src)/64)
		var sizes []int
		for ; len(splits) >= 4; splits = splits[4:] {
			sizes = append(sizes, 1+int(binary.LittleEndian.Uint32(splits)%uint32(4*c+8)))
		}
		checkStreamWriterEqualsSerial(t, accs[int(which)%len(accs)], src, c, sizes)
	})
}
