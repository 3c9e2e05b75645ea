package nxzip

import (
	"io"
	"sync/atomic"

	"nxzip/internal/checksum"
	"nxzip/internal/deflate"
	"nxzip/internal/lz77"
	"nxzip/internal/nx"
)

// StreamWriter compresses through the accelerator model into a *single*
// gzip member, carrying the 32 KiB history window across requests the way
// the NX library does: each chunk is submitted with the tail of the
// previous data as history, the engine emits non-final blocks with sync
// flushes, and the writer maintains the member CRC incrementally. This
// trades history-replay beats for the cross-chunk matches that the
// multi-member Writer gives up (experiment E13 quantifies both sides).
//
// A stream's segments share the history window, so on a multi-device
// node the writer pins to one device at construction (a sticky pick)
// instead of dispatching per segment. But a segment depends only on the
// plaintext before it, never on another segment's output, so the segments
// one Write (or one ReadFrom read) holds run side by side — as many at
// once as the pinned device has engines — and are emitted in stream order
// before the call returns: same bytes, same device cycles, synchronous
// errors, and no goroutine outlives the call (DESIGN 5q).
type StreamWriter struct {
	acc   *Accelerator
	ctx   atomic.Pointer[nx.Context] // pinned device context; the window rides the CRB, so the pin can move
	out   io.Writer
	chunk int
	// lead is the end of the stream as the next segment needs it: up to a
	// window of bytes already in emitted segments, then the pending bytes
	// (fewer than chunk between calls) that are in none yet.
	lead    []byte
	pending int
	jobs    wave[segmentJob]
	crc     checksum.CRC32
	isize   uint32
	err     error
	started bool
	closed  bool

	// Stats accumulates device accounting across requests.
	Stats Metrics
}

// segmentJob is one segment on its way through the device.
type segmentJob struct {
	src, window []byte      // the segment; the stream before it, up to lz77.WindowSize
	final       bool        // the stream ends with it
	stitch      []byte      // backs a window that opens in lead and ends in the caller's p
	pin         *nx.Context // the stream's pin as the segment found it, then as it left it
	body        []byte      // the encoded segment, in a buffer the job's next use appends over
	m           Metrics     // its accounting
}

// NewStreamWriter returns a single-member streaming writer with the
// default chunk size.
func (a *Accelerator) NewStreamWriter(out io.Writer) *StreamWriter {
	return a.NewStreamWriterChunk(out, DefaultChunkSize)
}

// NewStreamWriterChunk sets an explicit per-request chunk size.
func (a *Accelerator) NewStreamWriterChunk(out io.Writer, chunk int) *StreamWriter {
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	w := &StreamWriter{acc: a, out: out, chunk: chunk}
	w.ctx.Store(a.nctx.PickSticky())
	return w
}

// Write tops the pending bytes up to a chunk — so segments fall on
// multiples of chunk however the Writes were cut — and runs it, and the
// whole chunks after it where they lie in p, as one wave. It reports the
// bytes of p accepted: on a failure, those in the segments emitted before.
func (w *StreamWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, ErrWriterClosed
	}
	take := min(w.chunk-w.pending, len(p))
	w.lead = append(w.lead, p[:take]...)
	if w.pending += take; w.pending < w.chunk {
		return len(p), nil
	}
	rest := p[take:]
	if emitted, err := w.wave(rest, false); err != nil {
		return max(0, take+(emitted-1)*w.chunk), err
	}
	// lead moves past the wave, one copy a Write: the window before the
	// bytes of rest still in no segment, and those bytes.
	w.pending = len(rest) % w.chunk
	keep := lz77.WindowSize + w.pending
	w.lead = append(w.lead[:copy(w.lead, tail(w.lead, keep-len(rest)))], tail(rest, keep)...)
	return len(p), nil
}

// ReadFrom implements io.ReaderFrom, so that io.Copy — whose own 32 KiB
// Writes rarely hold two segments — keeps the device's engines busy too:
// each read fills a segment per engine and is written as one Write.
func (w *StreamWriter) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	buf := make([]byte, w.ctx.Load().Device().EngineCount()*w.chunk)
	for {
		n, rerr := io.ReadFull(r, buf[:len(buf)-w.pending])
		accepted, err := w.Write(buf[:n])
		total += int64(accepted)
		if err != nil || rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			return total, err
		} else if rerr != nil {
			return total, rerr
		}
	}
}

// tail is the last n bytes of b: all of b if it has fewer, none if n <= 0.
func tail(b []byte, n int) []byte { return b[len(b)-min(max(n, 0), len(b)):] }

// cut makes j segment i of a wave — the pending bytes at lead's end, then
// the whole chunks of rest — with the window before it: bytes where they
// lie, in lead or in rest, unless the window spans both.
func (w *StreamWriter) cut(j *segmentJob, rest []byte, i int, final bool) {
	j.final = final
	if i == 0 {
		at := len(w.lead) - w.pending
		j.window, j.src = w.lead[:at], w.lead[at:]
		return
	}
	at := (i - 1) * w.chunk
	j.src = rest[at : at+w.chunk]
	before, within := tail(w.lead, lz77.WindowSize-at), tail(rest[:at], lz77.WindowSize)
	if j.window = within; len(within) == 0 {
		j.window = before
	} else if len(before) > 0 {
		j.stitch = append(append(j.stitch[:0], before...), within...)
		j.window = j.stitch
	}
}

// wave runs the segments cut makes of lead and rest through the pinned
// device, as many at once as it has engines, and emits them — body, CRC,
// ISIZE, Stats — in stream order on the caller's goroutine. It returns how
// many before the first failure.
func (w *StreamWriter) wave(rest []byte, final bool) (emitted int, _ error) {
	if !w.started {
		if _, w.err = w.out.Write(deflate.AppendGzipHeader(nil)); w.err != nil {
			return 0, w.err
		}
		w.started = true
	}
	emitted, w.err = w.jobs.run(1+len(rest)/w.chunk, w.ctx.Load().Device().EngineCount(),
		func(j *segmentJob, i int) { w.cut(j, rest, i, final) },
		w.run,
		func(j *segmentJob) error {
			w.crc.Update(j.src)
			w.isize += uint32(len(j.src))
			if j.final {
				j.body = deflate.AppendGzipTrailer(j.body, w.crc.Sum(), int(w.isize))
			}
			if _, err := w.out.Write(j.body); err != nil {
				return err
			}
			w.Stats.add(&j.m)
			w.acc.met.streamSegments.Inc()
			return nil
		})
	return emitted, w.err
}

// run compresses j as one pipeline request pinned to the stream's device.
// The history window rides the CRB, so the pin migrates to another
// healthy device on device-local failure (or off a draining one) and the
// stream continues byte-identically; with no healthy device left the
// software segment encoder takes over. Segments in flight each work on a
// copy of the pin, and one that migrated moves the stream's only if that
// is still where it started from: the first to leave a device wins.
func (w *StreamWriter) run(_ int, j *segmentJob) (err error) {
	from := w.ctx.Load()
	j.pin = from
	j.body, err = w.acc.do(w.acc.nctx, &j.pin, op{kind: opSegment, name: "stream-compress", format: FormatRaw,
		src: j.src, dst: j.body[:0], history: j.window, notFinal: !j.final}, &j.m)
	w.ctx.CompareAndSwap(from, j.pin)
	return err
}

// Close submits the final segment, written with the gzip trailer behind it.
func (w *StreamWriter) Close() error {
	if w.err != nil || w.closed {
		return w.err
	}
	if _, err := w.wave(nil, true); err != nil {
		return err
	}
	w.closed = true
	if w.Stats.InBytes > 0 && w.Stats.OutBytes > 0 {
		w.Stats.Ratio = float64(w.Stats.InBytes) / float64(w.Stats.OutBytes)
	}
	return nil
}
