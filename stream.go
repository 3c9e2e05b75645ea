package nxzip

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

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
// member is inflated exactly once — the engine reports how many source
// bytes one member consumed, so no separate boundary pass is needed —
// and MaxOutput is enforced inside each member's decode, so a single
// bombing member fails before its output is ever buffered.
//
// A Reader is a single-stream object: use it from one goroutine at a
// time. Setting Workers > 1 before the first Read decodes the members of
// a multi-member stream concurrently through per-worker VAS windows.
type Reader struct {
	acc   *Accelerator
	src   io.Reader
	plain *bytes.Reader
	// MaxOutput bounds the total decompressed size (0 = 1 GiB).
	MaxOutput int
	// Workers sets the number of concurrent member decodes (0 or 1 =
	// serial). Must be set before the first Read.
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

func (r *Reader) prime() error {
	if r.plain != nil {
		return nil
	}
	comp, err := io.ReadAll(r.src)
	if err != nil {
		return err
	}
	var out []byte
	if r.Workers > 1 {
		out, err = r.primeParallel(comp)
	} else {
		out, err = r.primeSerial(comp)
	}
	if err != nil {
		return err
	}
	r.plain = bytes.NewReader(out)
	return nil
}

// primeSerial decodes members in order, one engine pass per member,
// threading the remaining output budget into each decode.
func (r *Reader) primeSerial(comp []byte) ([]byte, error) {
	limit := r.limit()
	var out []byte
	rest := comp
	for len(rest) > 0 {
		plain, consumed, m, err := r.acc.decompressMember(r.acc.nctx, rest, limit-len(out))
		if err != nil {
			return nil, err
		}
		r.addMetrics(m)
		out = append(out, plain...)
		if len(out) > limit {
			return nil, fmt.Errorf("nxzip: decompressed stream exceeds %d bytes", limit)
		}
		rest = rest[consumed:]
	}
	return out, nil
}

// memberSpan is one gzip member located by the skim pass.
type memberSpan struct {
	off, n   int // encoded byte range within the stream
	plainLen int // exact plaintext size, from the skim
}

// primeParallel is the host-side analogue of the paper's many-requests-
// in-flight decompression: a cheap structure-only skim locates member
// boundaries (and rejects bombs before anything is buffered), then the
// members decode concurrently through per-worker VAS windows and
// reassemble in order.
func (r *Reader) primeParallel(comp []byte) ([]byte, error) {
	limit := r.limit()
	var (
		spans []memberSpan
		total int
		pos   int
	)
	for pos < len(comp) {
		budget := limit - total
		if budget < 1 {
			budget = 1
		}
		plainLen, consumed, err := deflate.SkimGzipMember(comp[pos:], budget)
		if err != nil {
			if errors.Is(err, deflate.ErrTooLarge) {
				return nil, fmt.Errorf("nxzip: decompressed stream exceeds %d bytes", limit)
			}
			return nil, err
		}
		total += plainLen
		if total > limit {
			return nil, fmt.Errorf("nxzip: decompressed stream exceeds %d bytes", limit)
		}
		spans = append(spans, memberSpan{off: pos, n: consumed, plainLen: plainLen})
		pos += consumed
	}
	if len(spans) == 0 {
		return nil, nil
	}

	workers := r.Workers
	if workers > len(spans) {
		workers = len(spans)
	}
	out := make([]byte, total)
	offsets := make([]int, len(spans))
	for i, acc := 1, 0; i < len(spans); i++ {
		acc += spans[i-1].plainLen
		offsets[i] = acc
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEx error
		next    int
	)
	metrics := make([]*Metrics, len(spans))
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nctx := r.acc.node.OpenContext(r.acc.nctx.PID())
			defer nctx.Close()
			for {
				mu.Lock()
				i := next
				next++
				failed := firstEx != nil
				mu.Unlock()
				if failed || i >= len(spans) {
					return
				}
				sp := spans[i]
				plain, _, m, err := r.acc.decompressMember(nctx, comp[sp.off:sp.off+sp.n], sp.plainLen+1)
				if err == nil && len(plain) != sp.plainLen {
					err = fmt.Errorf("nxzip: member %d decoded to %d bytes, skim said %d", i, len(plain), sp.plainLen)
				}
				if err != nil {
					mu.Lock()
					if firstEx == nil {
						firstEx = err
					}
					mu.Unlock()
					return
				}
				copy(out[offsets[i]:], plain)
				metrics[i] = m
			}
		}()
	}
	wg.Wait()
	if firstEx != nil {
		return nil, firstEx
	}
	for _, m := range metrics {
		r.addMetrics(m)
	}
	return out, nil
}

func (r *Reader) addMetrics(m *Metrics) {
	if m == nil {
		return
	}
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
