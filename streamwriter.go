package nxzip

import (
	"encoding/binary"
	"io"

	"nxzip/internal/checksum"
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
// instead of dispatching per segment.
type StreamWriter struct {
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
	return &StreamWriter{acc: a, ctx: a.nctx.PickSticky(), out: out, chunk: chunk}
}

var gzipStreamHeader = []byte{0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255}

func (w *StreamWriter) start() error {
	if w.started {
		return nil
	}
	if _, err := w.out.Write(gzipStreamHeader); err != nil {
		w.err = err
		return err
	}
	w.started = true
	return nil
}

// Write buffers p and submits full chunks. Per the io.Writer contract it
// reports how many bytes of p were actually accepted: on a submission
// failure the count excludes the bytes of p that rode the failed chunk,
// even though earlier chunks were emitted.
func (w *StreamWriter) Write(p []byte) (int, error) {
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

// submit runs one segment as a pipeline request pinned to the stream's
// device. The history window rides the CRB, so the pin migrates to
// another healthy device on device-local failure (or off a draining
// one) and the stream continues byte-identically; with no healthy device
// left the software segment encoder takes over.
func (w *StreamWriter) submit(chunk []byte, final bool) error {
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
	w.history = appendWindow(w.history, chunk)
	return nil
}

func appendWindow(window, chunk []byte) []byte {
	window = append(window, chunk...)
	if len(window) > lz77.WindowSize {
		window = append(window[:0], window[len(window)-lz77.WindowSize:]...)
	}
	return window
}

// Close submits the final segment and writes the gzip trailer.
func (w *StreamWriter) Close() error {
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
