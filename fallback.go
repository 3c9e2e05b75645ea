package nxzip

// fallback.go is the graceful-degradation layer: every public operation
// first tries the accelerator pool (re-dispatching device-local failures
// to other healthy devices through the topology health scoreboard), and
// when the pool is unhealthy or the retry budget is exhausted it falls
// back to the software path — the same internal/lz77 + internal/deflate
// code the paper's software baseline uses — so callers still get correct
// bytes. Degraded results are flagged in Metrics and counted in the
// nxzip.fallbacks / nxzip.redispatches instruments.

import (
	"errors"
	"fmt"
	"time"

	"nxzip/internal/checksum"
	"nxzip/internal/deflate"
	"nxzip/internal/lz77"
	"nxzip/internal/nx"
	"nxzip/internal/topology"
)

// softLevel is the zlib-equivalent compression level of the software
// fallback path.
const softLevel = 6

// failoverEligible reports whether a device-path error should be
// absorbed by re-dispatch/fallback rather than surfaced: transient
// device-local failures (nx.Retryable), plus error completion codes that
// an injected flake can force on intact input (data check, invalid CRB,
// CRC mismatch) — for genuinely bad input the software path fails too
// and its error is authoritative. Deadline and cancellation failures
// surface directly: that budget belongs to the caller.
func failoverEligible(err error) bool {
	return nx.Retryable(err) ||
		errors.Is(err, nx.ErrDataCorrupt) ||
		errors.Is(err, nx.ErrInvalidCRB)
}

// ccFail wraps a non-OK completion into an errors.Is-able error carrying
// the CSB detail.
func ccFail(op string, csb *nx.CSB) error {
	if csb.Detail != "" {
		return fmt.Errorf("nxzip: %s: %w: %s", op, csb.CC.Err(), csb.Detail)
	}
	return fmt.Errorf("nxzip: %s: %w", op, csb.CC.Err())
}

// softMetrics builds the Metrics of a software-path result: host
// wall-clock stands in for device time (so Throughput stays meaningful),
// no device cycles are charged, and checksums cover the plaintext.
// inflated selects the ratio's direction (output/input).
func softMetrics(plain []byte, in, out int, start time.Time, inflated bool) Metrics {
	m := Metrics{
		InBytes:    in,
		OutBytes:   out,
		DeviceTime: time.Since(start),
		Degraded:   true,
	}
	m.CRC32, m.Adler32 = checksum.SumBoth(plain)
	switch {
	case in == 0 || out == 0:
	case inflated:
		m.Ratio = float64(out) / float64(in)
	default:
		m.Ratio = float64(in) / float64(out)
	}
	return m
}

// soft runs o on the software path — the same pure-Go codecs the engine
// model runs, minus the device — and writes the result's accounting to
// m. Its verdict on the input is authoritative: an error here means the
// stream really is corrupt (or over budget), not that a device flaked.
func (a *Accelerator) soft(o *op, m *Metrics) ([]byte, error) {
	start := time.Now()
	var (
		out   []byte
		plain = o.src // what the checksums cover
		in    = len(o.src)
		err   error
	)
	switch o.kind {
	case opCompress:
		out, err = softEncode(o.format, o.src)
	case opDict:
		out, err = deflate.CompressZlibDict(o.src, o.history, deflate.Options{Level: softLevel})
	case opSegment:
		out, err = softSegment(o.history, o.src, !o.notFinal)
	case opDecompress, opMember:
		out, in, err = o.format.Codec().Decode(o.src, o.format.wrap(), o.kind == opMember, o.maxOutput)
	case opResume:
		out, err = o.state.SoftFeed(o.src, !o.notFinal)
	case opTranscode:
		if plain, _, err = o.format.Codec().Decode(o.src, o.format.wrap(), false, 0); err == nil {
			out, err = softEncode(o.to, plain)
		}
	}
	// A tripped budget answers as the device does: a one-shot decode with
	// the target-space completion, a member or stream with its limit.
	if err != nil && nx.DecodeCC(err) == nx.CCTargetSpace {
		if o.kind == opDecompress {
			err = ccFail(o.name, &nx.CSB{CC: nx.CCTargetSpace, Detail: err.Error()})
		} else {
			err = errExceeds(o.maxOutput)
		}
	}
	if err != nil {
		return nil, err
	}
	if o.inflates() {
		plain = out
	}
	*m = softMetrics(plain, in, len(out), start, o.inflates())
	return out, nil
}

// softEncode compresses src into format f at the fallback's level; the
// block formats run their codec's encoder.
func softEncode(f Format, src []byte) ([]byte, error) {
	opts := deflate.Options{Level: softLevel}
	switch f {
	case FormatGzip:
		return deflate.CompressGzip(src, opts)
	case FormatZlib:
		return deflate.CompressZlib(src, opts)
	case FormatRaw:
		return deflate.Compress(src, opts)
	}
	return f.Codec().Encode(src)
}

// softSegment compresses one raw stream segment in software, carrying
// the history window exactly as the engine does: matches may reach into
// the previous 32 KiB, non-final segments end in a sync flush so the
// outputs concatenate into one valid DEFLATE stream.
func softSegment(history, chunk []byte, final bool) ([]byte, error) {
	matcher := lz77.NewSoftMatcher(lz77.LevelParams(softLevel))
	var toks []lz77.Token
	if len(history) > 0 {
		toks = matcher.TokenizeWithHistory(nil, history, chunk)
	} else {
		toks = matcher.Tokenize(nil, chunk)
	}
	return deflate.EncodeTokensStream(toks, chunk, deflate.ModeFixed, nil, final)
}

// compressMember compresses one chunk through nctx into a gzip member
// that carries its own length (deflate.IndexGzipMember), appended to
// buf[:0] — the one member emitter Writer and ParallelWriter share. The
// engine frames a canonical member MemberIndexLen bytes into buf and the
// host writes the stamp over the gap, so the request, the CRB and the
// cycle model know nothing of the index and the body is not copied again;
// m.OutBytes counts the stamp, as the sink will.
func (a *Accelerator) compressMember(nctx *topology.Context, buf, src []byte, m *Metrics) ([]byte, error) {
	const gap = deflate.MemberIndexLen
	if room := gap + len(src)/2 + 128; cap(buf) < room {
		buf = make([]byte, 0, room)
	}
	out, err := a.do(nctx, nil, op{kind: opCompress, name: "member-compress", format: FormatGzip, src: src, dst: buf[gap:gap]}, m)
	if err != nil {
		return nil, err
	}
	if len(out) <= cap(buf)-gap {
		buf = buf[:gap+len(out)] // appended in place
	} else {
		// The member outgrew buf and the engine's append moved it: give
		// it a home with the gap in front, and room for the next to vary.
		buf = append(make([]byte, gap, gap+len(out)+len(out)/8), out...)
	}
	deflate.IndexGzipMember(buf)
	m.OutBytes += gap
	return buf, nil
}

// decompressMember inflates the first gzip member of src through nctx
// into dst[:0] (nil: a buffer of the engine's), bounded by budget output
// bytes, returning the plaintext and the encoded bytes consumed. The
// engine decodes the member exactly once and reports consumed bytes via
// the CSB's SPBC, so multi-member streams advance without a separate
// boundary-finding pass.
func (a *Accelerator) decompressMember(nctx *topology.Context, dst, src []byte, budget int, m *Metrics) ([]byte, int, error) {
	out, err := a.do(nctx, nil, op{kind: opMember, name: "member-decompress", format: FormatGzip,
		src: src, dst: dst, maxOutput: max(budget, 1)}, m)
	return out, m.InBytes, err
}
