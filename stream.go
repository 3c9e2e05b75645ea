package nxzip

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"nxzip/internal/deflate"
	"nxzip/internal/telemetry"
	"nxzip/internal/topology"
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
	memberWriter // Write and Close, at one chunk at a time through the view's own context

	// Accumulated accounting across members.
	Stats Metrics
}

// NewWriter returns a Writer with the default chunk size.
func (a *Accelerator) NewWriter(out io.Writer) *Writer {
	return a.NewWriterChunk(out, DefaultChunkSize)
}

// NewWriterChunk returns a Writer with an explicit request size.
func (a *Accelerator) NewWriterChunk(out io.Writer, chunk int) *Writer {
	w := &Writer{}
	w.memberWriter = newMemberWriter(a, out, chunk, &w.Stats, a.met.writerMembers, nil, a.nctx)
	return w
}

// memberWriter is the Write and Close of both member writers: each chunk
// of the stream compressed into one member through one of lanes — the
// view's own context under Writer, a private context per worker under
// ParallelWriter — a lane's worth at once, emitted in stream order before
// the call returns.
type memberWriter struct {
	acc   *Accelerator
	out   io.Writer
	chunk int
	lanes []*topology.Context
	// pending is the bytes in no member yet: it starts on a member
	// boundary and holds less than a chunk per lane between calls.
	pending []byte
	jobs    wave[memberJob]
	stats   *Metrics           // the exported writer's Stats
	count   *telemetry.Counter // its members series,
	depth   *telemetry.Gauge   // and the reorder depth if it has one
	err     error
	closed  bool
}

// memberJob is one chunk on its way to becoming one member.
type memberJob struct {
	src []byte  // the chunk, where it lies in pending or in the caller's p
	gz  []byte  // the member made of it, in a buffer the job's next use appends over
	m   Metrics // its accounting
}

func newMemberWriter(a *Accelerator, out io.Writer, chunk int, stats *Metrics, count *telemetry.Counter, depth *telemetry.Gauge, lanes ...*topology.Context) memberWriter {
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return memberWriter{acc: a, out: out, chunk: chunk, stats: stats, count: count, depth: depth, lanes: lanes}
}

// Write compresses the whole chunks it completes — a Writer's one at a
// time, a ParallelWriter's once there is one for every worker, side by
// side — and writes their members to the sink before it returns: pending
// bytes topped up to whole chunks, then the whole chunks after them where
// they lie in p (members fall on multiples of the chunk size however the
// Writes were cut, so the bytes need not move). Anything shorter is
// buffered, so small Writes fill every worker too. Per the io.Writer
// contract it reports how many bytes of p were actually accepted: a
// failure of the device or the sink is returned by the Write that cut the
// failing member, and the count excludes the bytes of p that rode it and
// anything after, even though earlier members were emitted.
func (w *memberWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, ErrWriterClosed
	}
	carried := len(w.pending)
	if carried+len(p) < len(w.lanes)*w.chunk {
		w.pending = append(w.pending, p...)
		return len(p), nil
	}
	take := (w.chunk - carried%w.chunk) % w.chunk
	w.pending = append(w.pending, p[:take]...)
	rest := p[take:]
	if emitted, err := w.run((len(w.pending)+len(rest))/w.chunk, rest); err != nil {
		// Members drain pending first: the bytes carried in are not p's.
		return max(0, emitted*w.chunk-carried), err
	}
	w.pending = append(w.pending[:0], rest[len(rest)/w.chunk*w.chunk:]...)
	return len(p), nil
}

// run emits the first n chunks of pending followed by rest as one wave,
// and returns how many reached the sink before the first failure.
func (w *memberWriter) run(n int, rest []byte) (emitted int, _ error) {
	// waiting is the jobs cut and not yet emitted, which is what the
	// reorder depth reads while the wave runs; a failed wave leaves some.
	waiting := 0
	reorder := func(d int) {
		if waiting += d; w.depth != nil {
			w.depth.Add(int64(d))
		}
	}
	emitted, w.err = w.jobs.run(n, len(w.lanes),
		func(j *memberJob, i int) {
			src, at := w.pending, i*w.chunk
			if at >= len(src) {
				src, at = rest, at-len(src)
			}
			j.src = src[at:min(at+w.chunk, len(src))]
			reorder(1)
		},
		func(lane int, j *memberJob) (err error) {
			j.gz, err = w.acc.compressMember(w.lanes[lane], j.gz, j.src, &j.m)
			return err
		},
		func(j *memberJob) error {
			reorder(-1)
			w.stats.add(&j.m)
			w.count.Inc()
			_, err := w.out.Write(j.gz)
			return err
		})
	reorder(-waiting)
	return emitted, w.err
}

// Close compresses the remaining buffered data — whole chunks and the short
// one that ends the stream — and writes its members to the sink. A writer
// that received no data still emits one empty member so the output is a
// valid gzip stream. Close is idempotent: repeated calls return nil. Only
// a real submission or sink failure makes Close (and subsequent Writes)
// return an error.
func (w *memberWriter) Close() error {
	if w.err != nil || w.closed {
		return w.err
	}
	n := (len(w.pending) + w.chunk - 1) / w.chunk
	if n == 0 && w.stats.InBytes == 0 {
		n = 1
	}
	if _, err := w.run(n, nil); err != nil {
		return err
	}
	if w.stats.InBytes > 0 && w.stats.OutBytes > 0 {
		w.stats.Ratio = float64(w.stats.InBytes) / float64(w.stats.OutBytes)
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
	plain *bytes.Reader // the decoded stream, once the first Read has primed it
	err   error         // why it could not: every Read's answer from then on
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
	off, n        int     // encoded byte range within the stream
	out, plainLen int     // where its plaintext goes, and how much its trailer claims
	m             Metrics // what decoding it there cost
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
// max(1, Workers) lanes, each through its own VAS window — the host-side
// analogue of the paper's many-requests-in-flight decompression — and
// reports whether every member was what its hint and trailer claimed.
// Nothing of a stream that surprised is accounted: the serial loop will.
func (r *Reader) decodeSpans(comp []byte, spans []memberSpan, out []byte) bool {
	lanes := make([]*topology.Context, min(max(r.Workers, 1), len(spans)))
	for i := range lanes {
		lanes[i] = r.acc.node.OpenContext(r.acc.nctx.PID())
		defer lanes[i].Close()
	}
	var jobs wave[memberSpan]
	var sum Metrics
	decoded, _ := jobs.run(len(spans), len(lanes),
		func(j *memberSpan, i int) { *j = spans[i] },
		func(lane int, j *memberSpan) error {
			// The window is fenced where the member's plaintext should
			// end; a budget of one byte more lets a longer one show.
			plain, consumed, err := r.acc.decompressMember(lanes[lane], out[j.out:j.out:j.out+j.plainLen],
				comp[j.off:j.off+j.n], j.plainLen+1, &j.m)
			if err == nil && (consumed != j.n || len(plain) != j.plainLen) {
				err = deflate.ErrBadLength // of the member or of its plaintext: not what was claimed
			}
			return err
		},
		func(j *memberSpan) error {
			sum.add(&j.m)
			return nil
		})
	if decoded < len(spans) {
		return false
	}
	r.Stats.add(&sum)
	r.acc.met.readerMembers.Add(int64(decoded))
	return true
}

func (r *Reader) addMetrics(m *Metrics) {
	r.Stats.add(m)
	r.acc.met.readerMembers.Inc()
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.plain == nil && r.err == nil {
		r.err = r.prime()
	}
	if r.err != nil {
		return 0, r.err
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
