package nx

// codec.go is the codec-plural seam: a first-class Codec identity for
// every request, a CodecSet capability mask engines advertise, and the
// per-codec function-code table that replaces the ad-hoc FC842* special
// cases. The topology layer routes requests to capable devices by the
// CRB's required codec set; the engine rejects requests outside its
// advertised set with CCInvalidCRB, exactly as hardware NACKs a function
// code it does not implement.

import (
	"errors"
	"fmt"
	"strings"

	"nxzip/internal/deflate"
	"nxzip/internal/lz4"
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
	switch c {
	case CodecDeflate:
		return "deflate"
	case Codec842:
		return "842"
	case CodecLZ4:
		return "lz4"
	}
	return fmt.Sprintf("Codec(%d)", int(c))
}

// ParseCodec maps a codec name to its Codec.
func ParseCodec(s string) (Codec, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "deflate", "gzip", "zlib", "raw":
		return CodecDeflate, nil
	case "842":
		return Codec842, nil
	case "lz4":
		return CodecLZ4, nil
	}
	return 0, fmt.Errorf("unknown codec %q (want deflate, 842 or lz4)", s)
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

// funcCodecs is the per-codec function-code table: which codec each
// function code belongs to, and whether it is a compress or decompress
// op. FCMove and FCTranscode are special: move needs no codec, and
// transcode derives its requirement from the CRB's source/target codecs.
var funcCodecs = map[FuncCode]Codec{
	FCCompressFHT:       CodecDeflate,
	FCCompressDHT:       CodecDeflate,
	FCCompressCannedDHT: CodecDeflate,
	FCDecompress:        CodecDeflate,
	FC842Compress:       Codec842,
	FC842Decompress:     Codec842,
	FCLZ4Compress:       CodecLZ4,
	FCLZ4Decompress:     CodecLZ4,
}

// Codec returns the codec a function code belongs to. FCMove and
// FCTranscode report CodecDeflate as a neutral default; use
// CRB.RequiredCodecs for routing.
func (f FuncCode) Codec() Codec {
	if c, ok := funcCodecs[f]; ok {
		return c
	}
	return CodecDeflate
}

// compressFunc maps a codec to its compress function code (DHT mode for
// DEFLATE: transcode is a ratio play, so it pays for the sampled table).
func compressFunc(c Codec) FuncCode {
	switch c {
	case Codec842:
		return FC842Compress
	case CodecLZ4:
		return FCLZ4Compress
	}
	return FCCompressDHT
}

// decompressFunc maps a codec to its decompress function code.
func decompressFunc(c Codec) FuncCode {
	switch c {
	case Codec842:
		return FC842Decompress
	case CodecLZ4:
		return FCLZ4Decompress
	}
	return FCDecompress
}

// CompressFunc returns the function code that compresses with this
// codec (DHT mode for DEFLATE).
func (c Codec) CompressFunc() FuncCode { return compressFunc(c) }

// DecompressFunc returns the function code that decompresses this codec.
func (c Codec) DecompressFunc() FuncCode { return decompressFunc(c) }

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

// blockCodec describes a byte-aligned block codec (842, LZ4) behind the
// generic engine dispatch: compress (and the longest source it takes, 0
// for any), bounded decompress, and the ingest-lane multiplier for the
// per-codec cycle model. LZ4's byte-aligned tokens let the match pipeline
// consume twice the DEFLATE input width per cycle (Chen et al.); 842's
// template scheme runs at line rate (multiplier 1).
type blockCodec struct {
	compress    func(src []byte) []byte
	maxInput    int
	decompress  func(src []byte, maxOutput int) ([]byte, error)
	ingestLanes int
}

// blockCodecs is indexed by Codec; CodecDeflate stays nil — DEFLATE runs
// the full LZ/Huffman pipeline, not the block path.
var blockCodecs = [codecCount]blockCodec{
	Codec842: {compress: x842.Compress, maxInput: x842.MaxInput, decompress: x842.Decompress, ingestLanes: 1},
	CodecLZ4: {compress: lz4.Compress, decompress: lz4.Decompress, ingestLanes: 2},
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

// decodeCC classifies a failed decode. A tripped output budget is target
// space, not corruption — the stream may be sound, and software enlarges
// the buffer (or rejects the bomb) and resubmits.
func decodeCC(err error) CC {
	if errors.Is(err, deflate.ErrTooLarge) || errors.Is(err, x842.ErrTooLarge) || errors.Is(err, lz4.ErrTooLarge) {
		return CCTargetSpace
	}
	return CCDataCorrupt
}
