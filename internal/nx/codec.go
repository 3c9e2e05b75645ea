package nx

// codec.go is the codec-plural seam: a first-class Codec identity for
// every request, a CodecSet capability mask engines advertise, and the
// codec table — the one place a codec is described: its function codes,
// encoder, decoder and how a failed decode is classified. The topology
// layer routes requests to capable devices by the CRB's required codec
// set; the engine rejects requests outside its advertised set with
// CCInvalidCRB, exactly as hardware NACKs a function code it does not
// implement.

import (
	"errors"
	"fmt"
	"strings"

	"nxzip/internal/deflate"
	"nxzip/internal/lz4"
	"nxzip/internal/lz77"
	"nxzip/internal/x842"
)

// Codec identifies a compression format family implemented by an engine.
type Codec int

const (
	// CodecDeflate is the DEFLATE family (raw/zlib/gzip wraps) — the
	// paper's primary engine.
	CodecDeflate Codec = iota
	// Codec842 is the 842 recompression engine (z15 memory expansion).
	Codec842
	// CodecLZ4 is the LZ4 block engine (high-throughput, byte-aligned).
	CodecLZ4

	// codecCount sizes per-codec tables and counter arrays.
	codecCount
)

// CodecCount is the number of codecs, for sizing per-codec arrays
// outside the package.
const CodecCount = int(codecCount)

func (c Codec) String() string {
	if c >= 0 && c < codecCount {
		return codecs[c].name
	}
	return fmt.Sprintf("Codec(%d)", int(c))
}

// AllCodecs lists every codec, for iteration.
func AllCodecs() []Codec { return []Codec{CodecDeflate, Codec842, CodecLZ4} }

// CodecSet is a capability bitmask. The zero value means "all codecs" —
// a device that does not advertise a set serves everything, which keeps
// every pre-existing DeviceConfig working unchanged.
type CodecSet uint32

// Codecs builds a CodecSet from an explicit codec list.
func Codecs(cs ...Codec) CodecSet {
	var s CodecSet
	for _, c := range cs {
		s |= 1 << uint(c)
	}
	return s
}

// Has reports whether the set explicitly contains c. The zero set
// contains nothing; use Supports for capability checks where zero means
// "everything".
func (s CodecSet) Has(c Codec) bool { return s&(1<<uint(c)) != 0 }

// With returns the set with c added.
func (s CodecSet) With(c Codec) CodecSet { return s | 1<<uint(c) }

// Supports reports whether a device advertising this set can serve a
// request requiring need. The zero advertised set means all codecs; the
// zero need means no codec requirement (e.g. FCMove).
func (s CodecSet) Supports(need CodecSet) bool {
	if s == 0 {
		return true
	}
	return s&need == need
}

func (s CodecSet) String() string {
	if s == 0 {
		return "all"
	}
	var names []string
	for _, c := range AllCodecs() {
		if s.Has(c) {
			names = append(names, c.String())
		}
	}
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, "+")
}

// codec is everything the package knows of one codec family. The engine's
// data path, both passes of a transcode and the root package's software
// path all read this table, so adding a codec is a row here plus a pure-Go
// codec package.
type codec struct {
	name string
	// The function codes that compress (DHT mode for DEFLATE: transcode
	// is a ratio play, so it pays for the sampled table) and decompress.
	compressFC, decompressFC FuncCode
	// encode is the block encoder, nil for DEFLATE, whose encoder is the
	// engine's LZ/Huffman pipeline (Engine.compress): it appends the block
	// for src to dst, which the engine hands it as the CRB's target.
	// maxInput is the longest source the encoder takes, 0 for any.
	encode   func(dst, src []byte) []byte
	maxInput uint64
	// decode decodes a whole stream in wrap or, with first, only the first
	// member of a gzip stream, bounded by opts.MaxOutput (0: the codec's
	// default), into opts.Dst's backing where it fits (the engine hands it
	// the CRB's target). consumed is the source bytes the stream took.
	decode func(src []byte, wrap Wrap, first bool, opts deflate.InflateOptions) (out []byte, consumed int, err error)
	// tooLarge is what decode wraps when the output budget trips (DecodeCC).
	tooLarge error
	// ingestLanes multiplies how many input bytes a block codec's match
	// pipeline consumes per cycle: LZ4's byte-aligned tokens take twice the
	// DEFLATE input width (Chen et al.); 842's templates run at line rate.
	ingestLanes int
}

var codecs = [codecCount]codec{
	CodecDeflate: {name: "deflate", compressFC: FCCompressDHT, decompressFC: FCDecompress,
		maxInput: lz77.MaxInput, tooLarge: deflate.ErrTooLarge,
		decode: func(src []byte, wrap Wrap, first bool, opts deflate.InflateOptions) (out []byte, consumed int, err error) {
			switch {
			case wrap == WrapGzip && first:
				out, consumed, _, err = deflate.DecompressGzipTail(src, opts)
				return out, consumed, err
			case wrap == WrapGzip:
				out, _, err = deflate.DecompressGzip(src, opts)
			case wrap == WrapZlib:
				out, _, err = deflate.DecompressZlib(src, opts)
			default:
				out, err = deflate.Decompress(src, opts)
			}
			return out, len(src), err
		}},
	Codec842: {name: "842", compressFC: FC842Compress, decompressFC: FC842Decompress,
		encode: x842.AppendCompress, maxInput: x842.MaxInput, decode: blockDecoder(x842.DecompressInto), tooLarge: x842.ErrTooLarge, ingestLanes: 1},
	CodecLZ4: {name: "lz4", compressFC: FCLZ4Compress, decompressFC: FCLZ4Decompress,
		encode: lz4.AppendCompress, maxInput: lz4.MaxInput, decode: blockDecoder(lz4.DecompressInto), tooLarge: lz4.ErrTooLarge, ingestLanes: 2},
}

// blockDecoder is a block codec's decoder in the table's shape: a block
// has no framing and no members, and takes all of its source.
func blockDecoder(decode func(dst, src []byte, maxOutput int) ([]byte, error)) func([]byte, Wrap, bool, deflate.InflateOptions) ([]byte, int, error) {
	return func(src []byte, _ Wrap, _ bool, opts deflate.InflateOptions) ([]byte, int, error) {
		out, err := decode(opts.Dst, src, opts.MaxOutput)
		return out, len(src), err
	}
}

// Codec returns the codec a function code belongs to. FCMove and
// FCTranscode report CodecDeflate as a neutral default; use
// CRB.RequiredCodecs for routing.
func (f FuncCode) Codec() Codec {
	for c := range codecs {
		if f == codecs[c].compressFC || f == codecs[c].decompressFC {
			return Codec(c)
		}
	}
	return CodecDeflate
}

// CompressFunc returns the function code that compresses with this
// codec (DHT mode for DEFLATE).
func (c Codec) CompressFunc() FuncCode { return codecs[c].compressFC }

// DecompressFunc returns the function code that decompresses this codec.
func (c Codec) DecompressFunc() FuncCode { return codecs[c].decompressFC }

// overLimit describes a source too long for the codec's encoder; it is
// empty for one the encoder takes.
func (c Codec) overLimit(n int) string {
	if limit := codecs[c].maxInput; limit > 0 && uint64(n) > limit {
		return fmt.Sprintf("source of %d bytes exceeds the %s encoder's %d", n, c, limit)
	}
	return ""
}

// Encode runs the codec's block encoder on the host, refusing a source
// past its limit as the engine does. DEFLATE has no block encoder.
func (c Codec) Encode(src []byte) ([]byte, error) {
	if codecs[c].encode == nil {
		return nil, fmt.Errorf("nx: no block encoder for codec %s", c)
	}
	if detail := c.overLimit(len(src)); detail != "" {
		return nil, errors.New("nx: " + detail)
	}
	return codecs[c].encode(nil, src), nil
}

// Decode runs the codec's decoder on the host — the engine's, minus the
// device: a whole stream in wrap or, with first, the first member of a
// gzip stream, bounded by maxOutput (0: the codec's default). consumed is
// the source bytes the stream took.
func (c Codec) Decode(src []byte, wrap Wrap, first bool, maxOutput int) (out []byte, consumed int, err error) {
	return codecs[c].decode(src, wrap, first, deflate.InflateOptions{MaxOutput: maxOutput})
}

// DecodeCC classifies a failed decode. A tripped output budget is target
// space, not corruption — the stream may be sound, and software enlarges
// the buffer (or rejects the bomb) and resubmits.
func DecodeCC(err error) CC {
	for c := range codecs {
		if errors.Is(err, codecs[c].tooLarge) {
			return CCTargetSpace
		}
	}
	return CCDataCorrupt
}

// RequiredCodecs returns the capability set a device must advertise to
// serve this request. FCMove needs none (every engine moves bytes);
// FCTranscode needs both sides.
func (crb *CRB) RequiredCodecs() CodecSet {
	switch crb.Func {
	case FCMove:
		return 0
	case FCTranscode:
		return Codecs(crb.SourceCodec, crb.TargetCodec)
	}
	return Codecs(crb.Func.Codec())
}

// decodeLimit is the most a decode may produce: what the target buffer
// holds or the caller's explicit budget, whichever is smaller. The decoders
// stop there, so the engine never materializes bytes it has nowhere to
// put and a decompression bomb costs one buffer's worth of work.
func decodeLimit(crb *CRB) int {
	if tc := targetCap(crb); crb.MaxOutput <= 0 || tc < crb.MaxOutput {
		return tc
	}
	return crb.MaxOutput
}
