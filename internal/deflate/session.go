package deflate

import (
	"fmt"
	"slices"

	"nxzip/internal/lz77"
)

// Session is a resumable DEFLATE decoder: input arrives in arbitrary
// chunks, output is produced as soon as whole blocks decode, and the
// 32 KiB window is carried across calls. This models the accelerator's
// decompression suspend/resume state (bit position + history window),
// which the paper identifies as the state that must be saved when a
// stream spans multiple requests.
//
// Commit granularity is one DEFLATE block: a block is only committed when
// either the caller has signalled end of input or at least 64 bits of
// input remain after it, which guarantees no lookup inside the block ever
// read past the real input (PeekBits pads with zeros, so a mid-block
// truncation could otherwise mis-decode rather than fail).
type Session struct {
	opts InflateOptions

	in       []byte // accumulated unconsumed-by-commit input
	bitsUsed int    // committed bit position within in
	buf      []byte // decode scratch: the history window, then the block in flight
	hist     int    // committed bytes of buf (at least the last 32 KiB of output)
	produced int    // total bytes produced
	done     bool
	dec      inflater // the session's own tables and bit reader
}

// NewSession creates an empty session.
func NewSession(opts InflateOptions) *Session {
	if opts.MaxOutput <= 0 {
		opts.MaxOutput = defaultMaxOutput
	}
	return &Session{opts: opts}
}

// Done reports whether the final block has been decoded.
func (s *Session) Done() bool { return s.done }

// Produced reports the total plaintext bytes emitted so far.
func (s *Session) Produced() int { return s.produced }

// Feed appends compressed input and decodes as many whole blocks as can
// be safely committed, returning the newly produced plaintext. final
// declares that no more input will arrive. Feed may be called with nil p
// to drain after setting final.
func (s *Session) Feed(p []byte, final bool) ([]byte, error) {
	return s.FeedInto(nil, p, final)
}

// FeedInto is Feed appending the plaintext to dst, which a caller that
// has drained the previous call's result hands back as dst[:0]: the
// result then costs no allocation once it has grown to a call's worth.
func (s *Session) FeedInto(dst, p []byte, final bool) ([]byte, error) {
	if s.done {
		if len(p) != 0 {
			return nil, fmt.Errorf("deflate: data after final block")
		}
		return dst, nil
	}
	s.in = append(s.in, p...)

	out := dst
	for {
		chunk, finalBlock, err := s.tryBlock(final)
		if err == errNeedMore {
			if final {
				return out, fmt.Errorf("%w: truncated stream", ErrCorrupt)
			}
			s.compact()
			return out, nil
		}
		if err != nil {
			return out, err
		}
		// Commit.
		s.produced += len(chunk)
		s.hist += len(chunk)
		if len(chunk) > cap(out)-len(out) {
			// Double: a call's worth of blocks arrives one append at a time,
			// and append's own growth of a large slice is a quarter.
			out = slices.Grow(out, max(len(chunk), cap(out)))
		}
		out = append(out, chunk...)
		s.bitsUsed = s.bitsUsed/8*8 + s.dec.r.BitsConsumed()
		if finalBlock {
			s.done = true
			s.compact()
			return out, nil
		}
	}
}

// errNeedMore is an internal signal: the block could not be committed yet.
var errNeedMore = fmt.Errorf("deflate: need more input")

// tryBlock decodes the block at the committed position into the scratch
// behind the history window, so distances resolve without copying the
// window. It does not move the committed state.
func (s *Session) tryBlock(final bool) (chunk []byte, finalBlock bool, err error) {
	d := &s.dec
	d.r.Reset(s.in[s.bitsUsed/8:])
	if d.r.SkipBits(uint(s.bitsUsed%8)) != nil {
		return nil, false, errNeedMore
	}
	if s.hist >= 2*lz77.WindowSize { // slide: keep one window of history
		s.hist = copy(s.buf, s.buf[s.hist-lz77.WindowSize:s.hist])
	}
	d.out, d.n, d.maxOut = s.buf[:cap(s.buf)], s.hist, s.hist+s.opts.MaxOutput-s.produced
	finalBlock, err = d.nextBlock()
	s.buf = d.out // the decode may have grown it
	switch {
	case err == nil:
	case final, err == ErrTooLarge, err == errStoredLen, err == errReservedType:
		return nil, false, err
	default:
		// Could be a genuine corruption, but with more input pending we
		// cannot tell it from truncation; retry after the next Feed.
		return nil, false, errNeedMore
	}
	// Safety margin: without end-of-input knowledge, only commit when the
	// decode provably never consumed zero-padding.
	if !final && d.r.BitsRemaining() < 64 {
		return nil, false, errNeedMore
	}
	return d.out[s.hist:d.n], finalBlock, nil
}

// compact drops committed whole bytes from the input buffer.
func (s *Session) compact() {
	drop := s.bitsUsed / 8
	if drop == 0 {
		return
	}
	s.in = append(s.in[:0], s.in[drop:]...)
	s.bitsUsed -= drop * 8
}

// Tail returns the unconsumed bytes after the final block, byte-aligned
// (the gzip trailer, when the caller framed the stream).
func (s *Session) Tail() []byte {
	if !s.done {
		return nil
	}
	off := (s.bitsUsed + 7) / 8
	if off > len(s.in) {
		return nil
	}
	return s.in[off:]
}
