package nxzip

import (
	"errors"
	"io"
	"slices"

	"nxzip/internal/checksum"
	"nxzip/internal/deflate"
	"nxzip/internal/nx"
)

// StreamReader inflates a single-member gzip stream incrementally through
// the accelerator: each underlying read becomes one resumable
// decompression request carrying the engine's suspend/resume state, so
// arbitrarily large streams decode in bounded memory with per-request
// device accounting. This is the decompression counterpart of
// StreamWriter.
//
// The requests of one stream share the engine's suspend/resume state, so
// on a multi-device node the reader pins to one device at construction.
type StreamReader struct {
	acc    *Accelerator
	ctx    *nx.Context // pinned device context (resume state stays put)
	src    io.Reader
	state  *nx.DecompState
	inbuf  []byte // compressed input not yet submitted; one buffer, reused
	outbuf []byte // the last request's plaintext, and the next one's target
	outPos int
	crc    checksum.CRC32

	headerDone  bool
	srcExhaust  bool
	trailerDone bool
	err         error

	// Stats accumulates device accounting across requests.
	Stats Metrics
}

// DefaultReadChunk is the compressed-bytes request size of StreamReader.
const DefaultReadChunk = 256 << 10

// NewStreamReader returns an incremental reader over a single-member gzip
// stream. maxOutput bounds the total plaintext (0 = 1 GiB).
func (a *Accelerator) NewStreamReader(src io.Reader, maxOutput int) *StreamReader {
	return &StreamReader{
		acc:   a,
		ctx:   a.nctx.PickSticky(),
		src:   src,
		state: nx.NewDecompState(maxOutput),
		inbuf: make([]byte, 0, DefaultReadChunk),
	}
}

// Read implements io.Reader.
func (r *StreamReader) Read(p []byte) (int, error) {
	for {
		if r.outPos < len(r.outbuf) {
			n := copy(p, r.outbuf[r.outPos:])
			r.outPos += n
			return n, nil
		}
		if r.err != nil {
			return 0, r.err
		}
		if r.trailerDone {
			return 0, io.EOF
		}
		if err := r.fill(); err != nil {
			r.err = err
			return 0, err
		}
	}
}

// fill pulls one chunk of compressed input and runs a resume request.
func (r *StreamReader) fill() error {
	// Top up the input buffer.
	if !r.srcExhaust {
		if len(r.inbuf) == cap(r.inbuf) {
			r.inbuf = slices.Grow(r.inbuf, DefaultReadChunk) // a header longer than the buffer
		}
		n, err := io.ReadFull(r.src, r.inbuf[len(r.inbuf):cap(r.inbuf)])
		r.inbuf = r.inbuf[:len(r.inbuf)+n]
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			r.srcExhaust = true
		default:
			return err
		}
	}
	chunk := r.inbuf
	if !r.headerDone {
		hlen, _, err := deflate.ParseGzipHeader(chunk)
		if err != nil {
			if !r.srcExhaust {
				return nil // need more input for the header
			}
			return err
		}
		chunk = chunk[hlen:]
		r.headerDone = true
	}
	if r.state.Done() {
		return r.finishTrailer()
	}

	// Submit what we have; keep the last 8 bytes back until EOF so the
	// trailer is never fed to the inflater as payload... the session
	// tolerates trailing bytes (it stops at the final block), so feed it
	// all and recover the trailer from state.Tail().
	//
	// The chunk is a pipeline request pinned to the stream's device. The
	// resume state travels in the CRB, so the pin may migrate — but only
	// on pre-engine failures (nx.Retryable): once the engine has fed the
	// session the state has advanced and a replay would double-feed the
	// chunk, so data-plane errors surface directly. With no healthy
	// device left the session's own software inflater finishes the chunk;
	// the resume state is the same object either way. The plaintext is
	// appended to the drained outbuf, and the session has copied what it
	// did not consume of the chunk, so both buffers go round again.
	var m Metrics
	out, err := r.acc.do(r.acc.nctx, &r.ctx, op{kind: opResume, name: "stream-decompress", format: FormatRaw,
		src: chunk, dst: r.outbuf[:0], state: r.state, notFinal: !r.srcExhaust}, &m)
	r.inbuf = r.inbuf[:0]
	r.Stats.add(&m) // on failure: the cost of the failed attempts
	if err != nil {
		return err
	}
	r.outbuf = out
	r.outPos = 0
	r.crc.Update(out)

	if r.state.Done() {
		if err := r.finishTrailer(); err != nil {
			return err
		}
	} else if r.srcExhaust && len(out) == 0 {
		return errors.New("nxzip: truncated gzip stream")
	}
	return nil
}

// finishTrailer checks the gzip trailer once the final block has decoded.
func (r *StreamReader) finishTrailer() error {
	if r.trailerDone {
		return nil
	}
	tail := r.state.Tail()
	// Any input we never submitted is also part of the tail.
	tail = append(append([]byte{}, tail...), r.inbuf...)
	if len(tail) < 8 && !r.srcExhaust {
		// Pull the remainder of the trailer from the source.
		rest, err := io.ReadAll(io.LimitReader(r.src, 16))
		if err != nil {
			return err
		}
		tail = append(tail, rest...)
		r.srcExhaust = true
	}
	if err := deflate.CheckGzipTrailer(tail, r.crc.Sum(), int(r.state.Produced())); err != nil {
		return err
	}
	r.trailerDone = true
	return nil
}
