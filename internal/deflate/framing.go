package deflate

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nxzip/internal/checksum"
)

// Framing errors.
var (
	ErrBadMagic    = errors.New("deflate: bad stream magic")
	ErrBadChecksum = errors.New("deflate: checksum mismatch")
	ErrBadLength   = errors.New("deflate: length mismatch")
)

// gzip header flag bits (RFC 1952).
const (
	gzFTEXT    = 1 << 0
	gzFHCRC    = 1 << 1
	gzFEXTRA   = 1 << 2
	gzFNAME    = 1 << 3
	gzFCOMMENT = 1 << 4
)

// GzipWrap frames a raw DEFLATE stream as gzip: the canonical header plus
// the CRC32/ISIZE trailer computed over the original plaintext. The
// accelerator's "wrap" function codes perform exactly this framing inline.
func GzipWrap(deflated []byte, plain []byte) []byte {
	out := AppendGzipHeader(make([]byte, 0, len(deflated)+18))
	return AppendGzipTrailer(append(out, deflated...), checksum.Sum32(plain), len(plain))
}

// AppendGzipHeader appends the canonical 10-byte gzip header — magic,
// CM=8 (deflate), FLG=0, MTIME=0, XFL=0, OS=255 (unknown) — to dst. Every
// header this package writes starts from it. Together with
// AppendGzipTrailer it lets an encoder frame in place — header, then
// DEFLATE body, then trailer — so wrapping costs no extra copy or
// allocation, exactly as the hardware's wrap function codes frame inline
// on the output DMA path.
func AppendGzipHeader(dst []byte) []byte {
	return append(dst, 0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255)
}

// AppendGzipTrailer appends the CRC32/ISIZE gzip trailer for a plaintext
// with the given checksum and length.
func AppendGzipTrailer(dst []byte, crc uint32, isize int) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(dst, crc), uint32(isize))
}

// gzipTrailer reads the CRC-32 and ISIZE of the trailer at the start of
// tail: the one place a gzip trailer is parsed.
func gzipTrailer(tail []byte) (crc, isize uint32, err error) {
	if len(tail) < 8 {
		return 0, 0, fmt.Errorf("%w: truncated gzip trailer", ErrBadMagic)
	}
	return binary.LittleEndian.Uint32(tail), binary.LittleEndian.Uint32(tail[4:]), nil
}

// CheckGzipTrailer checks the trailer at the start of tail against a
// plaintext of n bytes whose CRC-32 is crc. A tail too short to hold a
// trailer is ErrBadMagic, a wrong ISIZE ErrBadLength and a wrong CRC-32
// ErrBadChecksum, in that order of precedence; every gzip decode checks
// its trailer here.
func CheckGzipTrailer(tail []byte, crc uint32, n int) error {
	wantCRC, wantSize, err := gzipTrailer(tail)
	switch {
	case err != nil:
		return err
	case uint32(n) != wantSize:
		return fmt.Errorf("%w: ISIZE %d, got %d bytes", ErrBadLength, wantSize, n)
	case crc != wantCRC:
		return fmt.Errorf("%w: CRC32 %08x, want %08x", ErrBadChecksum, crc, wantCRC)
	}
	return nil
}

// zlibCMF is the CMF byte of every zlib header this package writes: CM=8
// (deflate), CINFO=7 (32K window).
const zlibCMF = 0x78

// zlibFDICT is the FLG bit that announces a preset dictionary.
const zlibFDICT = 0x20

// fcheck is what RFC 1950's FCHECK bits exist to zero: CMF<<8|FLG modulo
// 31. A writer adds 31 less it to FLG; a reader refuses a header where it
// is not 0.
func fcheck(cmf, flg byte) byte {
	return byte((uint16(cmf)<<8 | uint16(flg)) % 31)
}

// appendZlibHeader appends a zlib header with FLEVEL=2 (default), FDICT
// as asked, and FCHECK set.
func appendZlibHeader(dst []byte, fdict bool) []byte {
	flg := byte(0x80)
	if fdict {
		flg |= zlibFDICT
	}
	return append(dst, zlibCMF, flg+(31-fcheck(zlibCMF, flg))%31)
}

// AppendZlibHeader appends the 2-byte zlib header ZlibWrap emits.
func AppendZlibHeader(dst []byte) []byte { return appendZlibHeader(dst, false) }

// AppendZlibTrailer appends the big-endian Adler-32 zlib trailer.
func AppendZlibTrailer(dst []byte, adler uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, adler)
}

// GzipUnwrap parses a gzip stream, returning the raw DEFLATE payload and
// the expected CRC32/ISIZE from the trailer. It tolerates the optional
// header fields so it can consume streams from other producers.
func GzipUnwrap(src []byte) (deflated []byte, wantCRC uint32, wantSize uint32, err error) {
	hlen, _, err := ParseGzipHeader(src)
	if err != nil {
		return nil, 0, 0, err
	}
	if hlen+8 > len(src) {
		return nil, 0, 0, fmt.Errorf("%w: truncated gzip stream", ErrBadMagic)
	}
	wantCRC, wantSize, err = gzipTrailer(src[len(src)-8:])
	return src[hlen : len(src)-8], wantCRC, wantSize, err
}

// CompressGzip compresses and gzip-frames in one shot.
func CompressGzip(src []byte, opts Options) ([]byte, error) {
	body, err := Compress(src, opts)
	if err != nil {
		return nil, err
	}
	return GzipWrap(body, src), nil
}

// DecompressGzip unwraps and inflates a gzip stream, verifying CRC32 and
// ISIZE. It returns the CRC-32 it verified — the plaintext's — so a caller
// that reports the checksum need not compute it again; with
// opts.Follower, the follower holds the Adler-32 as well.
//
// With no opts.Dst the output buffer is sized once, from the trailer's
// ISIZE plus the fast loop's margin, but to no more than the budget or
// isizeTrust times the stream's length: a trailer that lies costs at most
// that, and a stream that expands further grows from there.
func DecompressGzip(src []byte, opts InflateOptions) (out []byte, crc uint32, err error) {
	body, _, isize, err := GzipUnwrap(src)
	if err != nil {
		return nil, 0, err
	}
	if opts.Dst == nil && isize > 0 {
		limit := opts.MaxOutput
		if limit <= 0 {
			limit = defaultMaxOutput
		}
		opts.Dst = make([]byte, 0, min(int(isize)+fastOutMargin, limit, isizeTrust*len(src)))
	}
	out, err = Decompress(body, opts)
	if err != nil {
		return nil, 0, err
	}
	crc = trailerCRC(out, opts.Follower)
	if err := CheckGzipTrailer(src[len(src)-8:], crc, len(out)); err != nil {
		return nil, 0, err
	}
	return out, crc, nil
}

// isizeTrust is how many times its own length a gzip stream's ISIZE may
// size DecompressGzip's output buffer to: past that the trailer is taken
// for a lie, or for a stream too compressible to size up front.
const isizeTrust = 64

// trailerCRC is the CRC-32 of a decode's output, which its gzip trailer is
// checked against: the follower's, when one rode the decode, or else
// computed here.
func trailerCRC(out []byte, f *checksum.Follower) uint32 {
	if f == nil {
		return checksum.Sum32(out)
	}
	crc, _ := f.Finish(out)
	return crc
}

// trailerAdler is trailerCRC's Adler-32, for a zlib trailer.
func trailerAdler(out []byte, f *checksum.Follower) uint32 {
	if f == nil {
		return checksum.SumAdler32(out)
	}
	_, adler := f.Finish(out)
	return adler
}

// ZlibWrap frames a raw DEFLATE stream as zlib (RFC 1950) with the default
// 32K window and an Adler-32 trailer over the plaintext.
func ZlibWrap(deflated []byte, plain []byte) []byte {
	out := AppendZlibHeader(make([]byte, 0, len(deflated)+6))
	return AppendZlibTrailer(append(out, deflated...), checksum.SumAdler32(plain))
}

// ZlibUnwrap parses a zlib stream, returning the raw DEFLATE payload and
// the expected Adler-32. It is ZlibUnwrapDict refusing a stream that
// needs a preset dictionary.
func ZlibUnwrap(src []byte) (deflated []byte, wantAdler uint32, err error) {
	deflated, wantAdler, _, hasDict, err := ZlibUnwrapDict(src)
	if err == nil && hasDict {
		err = fmt.Errorf("%w: preset dictionary unsupported", ErrBadMagic)
	}
	if err != nil {
		return nil, 0, err
	}
	return deflated, wantAdler, nil
}

// CompressZlib compresses and zlib-frames in one shot.
func CompressZlib(src []byte, opts Options) ([]byte, error) {
	body, err := Compress(src, opts)
	if err != nil {
		return nil, err
	}
	return ZlibWrap(body, src), nil
}

// DecompressZlib unwraps and inflates a zlib stream, verifying Adler-32,
// and returns the verified checksum with the plaintext.
func DecompressZlib(src []byte, opts InflateOptions) (out []byte, adler uint32, err error) {
	body, want, err := ZlibUnwrap(src)
	if err != nil {
		return nil, 0, err
	}
	out, err = Decompress(body, opts)
	if err != nil {
		return nil, 0, err
	}
	if adler = trailerAdler(out, opts.Follower); adler != want {
		return nil, 0, fmt.Errorf("%w: adler %08x, want %08x", ErrBadChecksum, adler, want)
	}
	return out, adler, nil
}

// DecompressGzipTail inflates the FIRST gzip member of src in a single
// pass, verifying its CRC32 and ISIZE, and returns the plaintext, the
// total bytes consumed (header + DEFLATE stream + trailer) and the verified
// CRC-32. Bytes beyond the first member are left untouched, so multi-member
// streams decode by repeated calls — each member is inflated exactly once.
func DecompressGzipTail(src []byte, opts InflateOptions) (out []byte, consumed int, crc uint32, err error) {
	hlen, _, err := ParseGzipHeader(src)
	if err != nil {
		return nil, 0, 0, err
	}
	body, used, err := DecompressTail(src[hlen:], opts)
	if err != nil {
		return nil, 0, 0, err
	}
	crc = trailerCRC(body, opts.Follower)
	if err := CheckGzipTrailer(src[hlen+used:], crc, len(body)); err != nil {
		return nil, 0, 0, err
	}
	return body, hlen + used + 8, crc, nil
}

// DecompressGzipMulti inflates a gzip stream that may consist of multiple
// concatenated members (which RFC 1952 defines as equivalent to the
// concatenation of the plaintexts). Each member's CRC32 and ISIZE are
// verified, each member is inflated exactly once, and the MaxOutput
// budget is threaded into every member's inflate so a single bombing
// member trips the limit during its decode rather than after. The
// accelerator's streaming writer emits one member per submitted request,
// so this is the matching reader.
func DecompressGzipMulti(src []byte, opts InflateOptions) ([]byte, error) {
	limit := opts.MaxOutput
	if limit <= 0 {
		limit = defaultMaxOutput
	}
	var out []byte
	for len(src) > 0 {
		// Remaining budget for this member; floor of 1 so an exactly-spent
		// budget still admits empty members (the cumulative check below
		// catches any overshoot).
		budget := limit - len(out)
		if budget < 1 {
			budget = 1
		}
		body, consumed, _, err := DecompressGzipTail(src, InflateOptions{MaxOutput: budget})
		if err != nil {
			return nil, err
		}
		out = append(out, body...)
		if len(out) > limit {
			return nil, ErrTooLarge
		}
		src = src[consumed:]
	}
	return out, nil
}
