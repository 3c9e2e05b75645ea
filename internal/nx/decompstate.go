package nx

import (
	"nxzip/internal/deflate"
)

// DecompState is the decompression suspend/resume state a stream owner
// carries between requests: the inflate session (bit position within the
// pending input plus the 32 KiB output window). The paper describes
// exactly this state as what the decompressor must externalize when one
// DEFLATE stream spans multiple CRBs.
type DecompState struct {
	session *deflate.Session
	// produced counts total plaintext emitted across requests.
	produced int64
}

// NewDecompState creates resume state for a raw DEFLATE stream bounded by
// maxOutput (0 = 1 GiB).
func NewDecompState(maxOutput int) *DecompState {
	return &DecompState{session: deflate.NewSession(deflate.InflateOptions{MaxOutput: maxOutput})}
}

// NewDecompStateWithDict seeds the window with a preset dictionary.
func NewDecompStateWithDict(maxOutput int, dict []byte) *DecompState {
	return &DecompState{session: deflate.NewSessionWithWindow(deflate.InflateOptions{MaxOutput: maxOutput}, dict)}
}

// Done reports whether the stream's final block has been decoded.
func (d *DecompState) Done() bool { return d.session.Done() }

// Produced reports total plaintext bytes across all requests.
func (d *DecompState) Produced() int64 { return d.produced }

// Tail returns unconsumed bytes after the final block (stream trailer).
func (d *DecompState) Tail() []byte { return d.session.Tail() }

// SoftFeed advances the stream in software: the same inflate session the
// engine drives processes input on the host instead. A stream can move
// between device and software freely across requests — the resume state
// is this object either way. This is the degraded path the failover
// layer uses when no healthy device remains.
func (d *DecompState) SoftFeed(input []byte, final bool) ([]byte, error) {
	out, err := d.session.Feed(input, final)
	if err != nil {
		return nil, err
	}
	d.produced += int64(len(out))
	return out, nil
}

// decompressResume feeds one request's input into the carried session.
// Wrap must be WrapRaw: framing belongs to the stream owner, exactly as
// with compression segments.
func (e *Engine) decompressResume(crb *CRB, csb *CSB, translateCycles int64) {
	if crb.Wrap != WrapRaw {
		csb.CC = CCInvalidCRB
		csb.Detail = "resumable decompression requires raw wrap"
		return
	}
	st := crb.DecompState
	out, err := st.session.FeedInto(crb.Target[:0], crb.Input, !crb.NotFinal)
	if err != nil {
		csb.CC = CCDataCorrupt
		csb.Detail = err.Error()
		csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), 0, translateCycles)
		return
	}
	// The compressed-to-plaintext ratio of one chunk is unbounded, so the
	// heuristic 2x default cap does not apply here; only an explicit
	// TargetCap bounds a single resume step (the session's MaxOutput
	// bounds the whole stream regardless).
	if crb.TargetCap > 0 && len(out) > crb.TargetCap {
		csb.CC = CCTargetSpace
		csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), len(out), translateCycles)
		return
	}
	st.produced += int64(len(out))
	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = len(crb.Input)
	csb.TPBC = len(out)
	csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), len(out), translateCycles)
}
