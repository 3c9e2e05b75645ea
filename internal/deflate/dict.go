package deflate

import (
	"encoding/binary"
	"fmt"

	"nxzip/internal/checksum"
	"nxzip/internal/lz77"
)

// Preset-dictionary (FDICT) zlib streams, RFC 1950 §2.2. A dictionary is
// just pre-agreed LZ history: the compressor may reference it from the
// first byte, and the stream header carries the dictionary's Adler-32 so
// the decompressor can verify it holds the same bytes. On the
// accelerator, this maps directly onto the history-replay mechanism
// (CRB.History).

// ZlibWrapDict frames a raw DEFLATE stream as zlib with FDICT set.
func ZlibWrapDict(deflated, plain, dict []byte) []byte {
	out := appendZlibHeader(make([]byte, 0, len(deflated)+10), true)
	out = binary.BigEndian.AppendUint32(out, checksum.SumAdler32(dict))
	return AppendZlibTrailer(append(out, deflated...), checksum.SumAdler32(plain))
}

// ZlibUnwrapDict parses a zlib stream that may carry FDICT, returning the
// DEFLATE payload, the expected plaintext Adler-32, the dictionary id
// (zero when FDICT is clear), and whether a dictionary is required.
func ZlibUnwrapDict(src []byte) (deflated []byte, wantAdler, dictID uint32, hasDict bool, err error) {
	if len(src) < 6 {
		return nil, 0, 0, false, fmt.Errorf("%w: zlib stream too short", ErrBadMagic)
	}
	cmf, flg := src[0], src[1]
	if cmf&0x0F != 8 {
		return nil, 0, 0, false, fmt.Errorf("%w: zlib CM %d", ErrBadMagic, cmf&0x0F)
	}
	if fcheck(cmf, flg) != 0 {
		return nil, 0, 0, false, fmt.Errorf("%w: zlib FCHECK", ErrBadMagic)
	}
	pos := 2
	if flg&zlibFDICT != 0 {
		if len(src) < 10 {
			return nil, 0, 0, false, fmt.Errorf("%w: truncated DICTID", ErrBadMagic)
		}
		dictID = binary.BigEndian.Uint32(src[2:6])
		hasDict = true
		pos = 6
	}
	if len(src) < pos+4 {
		return nil, 0, 0, false, fmt.Errorf("%w: zlib stream too short", ErrBadMagic)
	}
	return src[pos : len(src)-4], binary.BigEndian.Uint32(src[len(src)-4:]), dictID, hasDict, nil
}

// CompressZlibDict compresses src against a preset dictionary using the
// software matcher and frames it with FDICT.
func CompressZlibDict(src, dict []byte, opts Options) ([]byte, error) {
	opts.fill()
	m := lz77.NewSoftMatcher(lz77.LevelParams(opts.Level))
	tokens := m.TokenizeWithHistory(nil, dict, src)
	mode := opts.Mode
	var body []byte
	var err error
	if mode == ModeAuto {
		// Auto cannot use its stored arm (stored blocks cannot express
		// cross-dictionary matches), so choose the cheaper of fixed and
		// dynamic explicitly — dynamic headers dominate tiny dictionary
		// hits.
		fixed, errF := EncodeTokens(tokens, src, ModeFixed, nil)
		dynamic, errD := EncodeTokens(tokens, src, ModeDynamic, opts.DHT)
		switch {
		case errF != nil:
			return nil, errF
		case errD != nil:
			return nil, errD
		case len(fixed) <= len(dynamic):
			body = fixed
		default:
			body = dynamic
		}
	} else {
		body, err = EncodeTokens(tokens, src, mode, opts.DHT)
		if err != nil {
			return nil, err
		}
	}
	return ZlibWrapDict(body, src, dict), nil
}

// DecompressZlibDict inflates a zlib stream, supplying dict when the
// header demands one. The dictionary's Adler-32 must match the DICTID.
func DecompressZlibDict(src, dict []byte, opts InflateOptions) ([]byte, error) {
	body, wantAdler, dictID, hasDict, err := ZlibUnwrapDict(src)
	if err != nil {
		return nil, err
	}
	var out []byte
	if hasDict {
		if got := checksum.SumAdler32(dict); got != dictID {
			return nil, fmt.Errorf("%w: dictionary adler %08x, stream wants %08x", ErrBadChecksum, got, dictID)
		}
		s := NewSessionWithWindow(opts, dict)
		out, err = s.Feed(body, true)
		if err != nil {
			return nil, err
		}
	} else {
		out, err = Decompress(body, opts)
		if err != nil {
			return nil, err
		}
	}
	if got := checksum.SumAdler32(out); got != wantAdler {
		return nil, fmt.Errorf("%w: adler %08x, want %08x", ErrBadChecksum, got, wantAdler)
	}
	return out, nil
}

// NewSessionWithWindow creates a Session whose history window is
// pre-seeded (preset dictionaries, request resume).
func NewSessionWithWindow(opts InflateOptions, window []byte) *Session {
	s := NewSession(opts)
	if len(window) > lz77.WindowSize {
		window = window[len(window)-lz77.WindowSize:]
	}
	s.buf = append([]byte{}, window...)
	s.hist = len(s.buf)
	return s
}
