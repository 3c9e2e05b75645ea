package nxzip

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"nxzip/internal/deflate"
)

// DefaultChunkSize is the request size the streaming Writer submits to
// the engine. Large requests amortize the fixed per-request overhead
// (see experiment E2/E8); 1 MiB sits on the flat part of the curve.
const DefaultChunkSize = 1 << 20

// ErrWriterClosed is returned by Write after Close. It is distinct from
// submission errors: a closed Writer is not a failed Writer, and a second
// Close remains a successful no-op.
var ErrWriterClosed = errors.New("nxzip: writer closed")

// Writer is an io.WriteCloser that compresses through the accelerator
// model into an underlying writer, producing a multi-member gzip stream
// (one member per submitted request — RFC 1952 defines concatenated
// members as the concatenation of their plaintexts, and gunzip/stdlib
// handle them natively). This mirrors how buffer-oriented accelerator
// requests are composed into streams in the NX software stack. Each
// member carries its encoded length in a header subfield other readers
// skip (deflate.IndexGzipMember), which is what lets Reader find the
// members without decoding them.
//
// A Writer is a single-stream object: use it from one goroutine at a
// time. Multiple Writers on one Accelerator may run concurrently; for
// concurrent compression of one stream use ParallelWriter.
type Writer struct {
	acc    *Accelerator
	out    io.Writer
	buf    bytes.Buffer
	member []byte // the last member's backing, reused for the next
	chunk  int
	closed bool
	err    error

	// Accumulated accounting across members.
	Stats Metrics
}

// NewWriter returns a Writer with the default chunk size.
func (a *Accelerator) NewWriter(out io.Writer) *Writer {
	return a.NewWriterChunk(out, DefaultChunkSize)
}

// NewWriterChunk returns a Writer with an explicit request size.
func (a *Accelerator) NewWriterChunk(out io.Writer, chunk int) *Writer {
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return &Writer{acc: a, out: out, chunk: chunk}
}

// Write buffers p and submits full chunks to the engine. Per the
// io.Writer contract it reports how many bytes of p were actually
// accepted: on a submission failure the count excludes the bytes of p
// that rode the failed chunk, even though earlier chunks were emitted.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, ErrWriterClosed
	}
	// Bytes already buffered from previous calls; chunks drain these
	// oldest-first, so they tell us how much of a failed chunk came from
	// earlier Writes rather than from p.
	carried := w.buf.Len()
	accepted := 0
	for {
		need := w.chunk - w.buf.Len()
		take := len(p) - accepted
		if take > need {
			take = need
		}
		w.buf.Write(p[accepted : accepted+take])
		accepted += take
		if w.buf.Len() < w.chunk {
			return accepted, nil
		}
		if err := w.submit(w.buf.Next(w.chunk)); err != nil {
			// The failed chunk held min(carried, chunk) old bytes; the
			// rest were p's — those were consumed but not emitted, so
			// they don't count as accepted.
			fromOld := carried
			if fromOld > w.chunk {
				fromOld = w.chunk
			}
			return accepted - (w.chunk - fromOld), err
		}
		carried -= w.chunk
		if carried < 0 {
			carried = 0
		}
	}
}

func (w *Writer) submit(chunk []byte) error {
	var m Metrics
	gz, err := w.acc.compressMember(w.acc.nctx, w.member, chunk, &m)
	if err != nil {
		w.err = err
		return err
	}
	w.member = gz
	w.Stats.add(&m)
	w.acc.met.writerMembers.Inc()
	if _, err := w.out.Write(gz); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Close flushes the remaining buffered data as a final member. A Writer
// that received no data still emits one empty member so the output is a
// valid gzip stream. Close is idempotent: repeated calls return nil.
// Only a real submission or sink failure makes Close (and subsequent
// Writes) return an error.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	if w.buf.Len() > 0 || w.Stats.InBytes == 0 {
		if err := w.submit(w.buf.Next(w.buf.Len())); err != nil {
			return err
		}
	}
	if w.Stats.InBytes > 0 && w.Stats.OutBytes > 0 {
		w.Stats.Ratio = float64(w.Stats.InBytes) / float64(w.Stats.OutBytes)
	}
	w.closed = true
	return nil
}

// Reader is an io.Reader that inflates a (possibly multi-member) gzip
// stream through the accelerator model. Like the device, it operates on
// whole buffers: the underlying stream is read fully on first use. Each
// member is inflated exactly once. Members that carry their length — the
// ones Writer and ParallelWriter emit, and BGZF blocks — are located
// without decoding and inflated straight into place, Workers at a time;
// for any other member the decode is the boundary finder: the engine
// reports how many source bytes it consumed, MaxOutput is enforced inside
// it, and a bombing member fails before its output is ever buffered.
//
// A Reader is a single-stream object: use it from one goroutine at a
// time.
type Reader struct {
	acc   *Accelerator
	src   io.Reader
	plain *bytes.Reader
	// MaxOutput bounds the total decompressed size (0 = 1 GiB).
	MaxOutput int
	// Workers sets the number of concurrent member decodes (0 or 1 =
	// serial), each through its own VAS window. Must be set before the
	// first Read.
	Workers int

	// Stats accumulates device accounting.
	Stats Metrics
}

// NewReader returns a Reader over src.
func (a *Accelerator) NewReader(src io.Reader) *Reader {
	return &Reader{acc: a, src: src}
}

// NewParallelReader returns a Reader that decodes members concurrently on
// workers goroutines, each with its own VAS send window.
func (a *Accelerator) NewParallelReader(src io.Reader, workers int) *Reader {
	return &Reader{acc: a, src: src, Workers: workers}
}

func (r *Reader) limit() int {
	if r.MaxOutput > 0 {
		return r.MaxOutput
	}
	return 1 << 30
}

func errExceeds(limit int) error {
	return fmt.Errorf("nxzip: decompressed stream exceeds %d bytes", limit)
}

// memberSpan is one member located by its length hint.
type memberSpan struct {
	off, n        int // encoded byte range within the stream
	out, plainLen int // where its plaintext goes, and how much its trailer claims
}

// prime decodes the stream: the members its length hints locate, side by
// side, then whatever the hints do not cover through the serial member
// loop — where a decode is its own boundary finder. A hint is a claim
// (deflate.HintedGzipMember). It decides where work starts, never what is
// returned: each hinted decode must consume exactly the stamped length
// and produce exactly the claimed plaintext, engine-verified CRC and
// ISIZE included, and on any surprise the hinted result is discarded and
// the whole stream goes to the serial loop, whose bytes or error are the
// answer for every input. The one thing taken on the hints' word is a
// refusal: a stream claiming more than the limit is turned away before
// any device work.
func (r *Reader) prime() error {
	if r.plain != nil {
		return nil
	}
	comp, err := readAll(r.src)
	if err != nil {
		return err
	}
	limit := r.limit()
	var (
		spans []memberSpan
		pos   int
		total int64
	)
	for pos < len(comp) {
		n, isize, ok := deflate.HintedGzipMember(comp[pos:])
		if !ok {
			break
		}
		if total+isize > int64(limit) {
			return errExceeds(limit)
		}
		spans = append(spans, memberSpan{off: pos, n: n, out: int(total), plainLen: int(isize)})
		pos += n
		total += isize
	}
	out := make([]byte, total)
	if !r.decodeSpans(comp, spans, out) {
		pos, out = 0, nil
	}
	for pos < len(comp) {
		var m Metrics
		plain, consumed, err := r.acc.decompressMember(r.acc.nctx, nil, comp[pos:], limit-len(out), &m)
		if err != nil {
			return err
		}
		r.addMetrics(&m)
		if out = append(out, plain...); len(out) > limit {
			return errExceeds(limit)
		}
		pos += consumed
	}
	r.plain = bytes.NewReader(out)
	return nil
}

// decodeSpans inflates the located members into their windows of out on
// max(1, Workers) workers, each through its own VAS window — the host-side
// analogue of the paper's many-requests-in-flight decompression — and
// reports whether every member was what its hint and trailer claimed.
func (r *Reader) decodeSpans(comp []byte, spans []memberSpan, out []byte) bool {
	var (
		wg        sync.WaitGroup
		next      atomic.Int64
		surprised atomic.Bool
		ms        = make([]Metrics, len(spans))
	)
	for wk := min(max(r.Workers, 1), len(spans)); wk > 0; wk-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nctx := r.acc.node.OpenContext(r.acc.nctx.PID())
			defer nctx.Close()
			for !surprised.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(spans) {
					return
				}
				// The window is fenced where the member's plaintext should
				// end; a budget of one byte more lets a longer one show.
				sp := spans[i]
				plain, consumed, err := r.acc.decompressMember(nctx, out[sp.out:sp.out:sp.out+sp.plainLen],
					comp[sp.off:sp.off+sp.n], sp.plainLen+1, &ms[i])
				if err != nil || consumed != sp.n || len(plain) != sp.plainLen {
					surprised.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if surprised.Load() {
		return false
	}
	for i := range ms {
		r.addMetrics(&ms[i])
	}
	return true
}

func (r *Reader) addMetrics(m *Metrics) {
	r.Stats.add(m)
	r.acc.met.readerMembers.Inc()
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if err := r.prime(); err != nil {
		return 0, err
	}
	return r.plain.Read(p)
}

// readAll is io.ReadAll without the regrowth when src can say how much
// it holds (bytes.Reader, bytes.Buffer, strings.Reader): one allocation,
// one copy.
func readAll(src io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if sized, ok := src.(interface{ Len() int }); ok {
		buf.Grow(sized.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(src)
	return buf.Bytes(), err
}
