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
	// held is a step the session has taken and the engine could not
	// deliver: a target page it reached faulted, so the attempt completed
	// as that fault with its output discarded. The session cannot step
	// back; the restart — the same CRB again, or the software path fed the
	// same input — delivers the held step instead of feeding twice.
	held    []byte
	holding bool
}

// NewDecompState creates resume state for a raw DEFLATE stream bounded by
// maxOutput (0 = 1 GiB).
func NewDecompState(maxOutput int) *DecompState {
	return &DecompState{session: deflate.NewSession(deflate.InflateOptions{MaxOutput: maxOutput})}
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
	out, held := d.takeHeld()
	if !held {
		var err error
		if out, err = d.session.Feed(input, final); err != nil {
			return nil, err
		}
	}
	d.produced += int64(len(out))
	return out, nil
}

// takeHeld hands over the undelivered step, if there is one.
func (d *DecompState) takeHeld() (out []byte, held bool) {
	out, held = d.held, d.holding
	d.held, d.holding = nil, false
	return out, held
}

// decompressResume feeds one request's input into the carried session.
// Wrap must be WrapRaw: framing belongs to the stream owner, exactly as
// with compression segments.
func (e *Engine) decompressResume(crb *CRB, csb *CSB, x *xlate) {
	if crb.Wrap != WrapRaw {
		csb.CC = CCInvalidCRB
		csb.Detail = "resumable decompression requires raw wrap"
		return
	}
	st := crb.DecompState
	out, held := st.takeHeld()
	if !held {
		var err error
		if out, err = st.session.FeedInto(crb.Target[:0], crb.Input, !crb.NotFinal); err != nil {
			// Nothing past the target's first page was reached.
			csb.CC = CCDataCorrupt
			csb.Detail = err.Error()
			csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), 0, x.cycles)
			return
		}
	}
	// The compressed-to-plaintext ratio of one chunk is unbounded, so the
	// heuristic 2x default cap does not apply here; only an explicit
	// TargetCap bounds a single resume step (the session's MaxOutput
	// bounds the whole stream regardless).
	reached, overflow := len(out), crb.TargetCap > 0 && len(out) > crb.TargetCap
	if overflow {
		reached = crb.TargetCap
	}
	translateCycles, ok := e.reach(x, crb, csb, reached)
	if !ok {
		st.held, st.holding = out, true
		return
	}
	csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), len(out), translateCycles)
	if overflow {
		csb.CC = CCTargetSpace
		return
	}
	st.produced += int64(len(out))
	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = len(crb.Input)
	csb.TPBC = len(out)
}
