package deflate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"time"

	"nxzip/internal/checksum"
)

// GzipHeader carries the optional RFC 1952 header fields. The accelerator
// writes a minimal header itself; richer headers are composed by the
// library around the engine output, which is what this type supports.
type GzipHeader struct {
	Name    string // FNAME: original file name (ISO 8859-1, no NUL)
	Comment string // FCOMMENT
	Extra   []byte // FEXTRA payload
	ModTime time.Time
	OS      byte // RFC 1952 OS code; 255 = unknown
	// HeaderCRC adds the FHCRC 16-bit header checksum.
	HeaderCRC bool
}

// Append serializes the header.
func (h GzipHeader) Append(dst []byte) ([]byte, error) {
	if strings.ContainsRune(h.Name, 0) || strings.ContainsRune(h.Comment, 0) {
		return nil, fmt.Errorf("deflate: gzip header strings must not contain NUL")
	}
	if len(h.Extra) > 0xFFFF {
		return nil, fmt.Errorf("deflate: FEXTRA too large (%d bytes)", len(h.Extra))
	}
	start := len(dst)
	var flg byte
	if len(h.Extra) > 0 {
		flg |= gzFEXTRA
	}
	if h.Name != "" {
		flg |= gzFNAME
	}
	if h.Comment != "" {
		flg |= gzFCOMMENT
	}
	if h.HeaderCRC {
		flg |= gzFHCRC
	}
	var mtime uint32
	if !h.ModTime.IsZero() && h.ModTime.Unix() > 0 {
		mtime = uint32(h.ModTime.Unix())
	}
	os := h.OS
	if os == 0 {
		os = 255
	}
	dst = AppendGzipHeader(dst)
	dst[start+3] = flg
	binary.LittleEndian.PutUint32(dst[start+4:], mtime)
	dst[start+9] = os
	if len(h.Extra) > 0 {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.Extra)))
		dst = append(dst, h.Extra...)
	}
	if h.Name != "" {
		dst = append(dst, h.Name...)
		dst = append(dst, 0)
	}
	if h.Comment != "" {
		dst = append(dst, h.Comment...)
		dst = append(dst, 0)
	}
	if h.HeaderCRC {
		crc := checksum.Sum32(dst[start:])
		dst = binary.LittleEndian.AppendUint16(dst, uint16(crc))
	}
	return dst, nil
}

// MemberIndexLen is what the length subfield adds to a member's header:
// XLEN, then one RFC 1952 subfield — the ID bytes 'N' 'X', SLEN = 4 and
// the member's whole encoded length, header through trailer, as a
// little-endian uint32. Every gzip reader skips it; ParseGzipHeader hands
// it back as the hint a multi-member reader hops by. The ID is private
// (not registered), chosen clear of the ones RFC 1952 lists and of the
// subfields met in the wild: BGZF's 'B' 'C', dictzip's 'R' 'A'.
const MemberIndexLen = 10

// IndexGzipMember stamps the length subfield on the canonical member in
// buf[MemberIndexLen:] (AppendGzipHeader's header, FLG 0): the header moves
// to the front of buf with FEXTRA set and the subfield takes the ten bytes
// it vacates, so the body is framed where the encoder left it. A member
// too long for the field is stamped 0, which no reader takes for a hint.
func IndexGzipMember(buf []byte) {
	copy(buf, buf[MemberIndexLen:][:10])
	buf[3] |= gzFEXTRA
	n := uint32(len(buf))
	if uint64(len(buf)) > math.MaxUint32 {
		n = 0
	}
	copy(buf[10:], []byte{MemberIndexLen - 2, 0, 'N', 'X', 4, 0})
	binary.LittleEndian.PutUint32(buf[16:], n)
}

// ParseGzipHeader returns the length of the member header at the start of
// src, optional fields included, and the member's length hint: the whole
// encoded length, header through trailer, that a subfield of FEXTRA claims
// for it, or 0. A hint is a claim and nothing more — HintedGzipMember is
// how a reader may use one. It is the one walk of RFC 1952 section 2.3 in
// this package, as strict as compress/gzip: XLEN and both strings must lie
// inside src, and FHCRC, when present, must be the low 16 bits of the
// CRC-32 of the header before it. (The one thing stricter there is an
// implementation limit this parser does not copy: names and comments of
// 512 bytes and more are refused.)
func ParseGzipHeader(src []byte) (hlen, hint int, err error) {
	if len(src) < 10 {
		return 0, 0, fmt.Errorf("%w: gzip header too short", ErrBadMagic)
	}
	if src[0] != 0x1F || src[1] != 0x8B {
		return 0, 0, fmt.Errorf("%w: not gzip", ErrBadMagic)
	}
	if src[2] != 8 {
		return 0, 0, fmt.Errorf("%w: unknown compression method %d", ErrBadMagic, src[2])
	}
	flg := src[3]
	pos := 10
	if flg&gzFEXTRA != 0 {
		if pos+2 > len(src) {
			return 0, 0, fmt.Errorf("%w: truncated FEXTRA", ErrBadMagic)
		}
		xlen := int(binary.LittleEndian.Uint16(src[pos:]))
		pos += 2
		if pos+xlen > len(src) {
			return 0, 0, fmt.Errorf("%w: truncated FEXTRA payload", ErrBadMagic)
		}
		hint = lengthHint(src[pos : pos+xlen])
		pos += xlen
	}
	for _, bit := range [...]byte{gzFNAME, gzFCOMMENT} {
		if flg&bit == 0 {
			continue
		}
		n := bytes.IndexByte(src[pos:], 0)
		if n < 0 {
			return 0, 0, fmt.Errorf("%w: truncated string field", ErrBadMagic)
		}
		pos += n + 1
	}
	if flg&gzFHCRC != 0 {
		if pos+2 > len(src) {
			return 0, 0, fmt.Errorf("%w: truncated FHCRC", ErrBadMagic)
		}
		want := binary.LittleEndian.Uint16(src[pos:])
		if got := uint16(checksum.Sum32(src[:pos])); got != want {
			return 0, 0, fmt.Errorf("%w: header CRC %04x, want %04x", ErrBadChecksum, got, want)
		}
		pos += 2
	}
	return pos, hint, nil
}

// lengthHint is the member length FEXTRA claims, 0 when it claims none:
// the writers' subfield (IndexGzipMember) or BGZF's 'B' 'C', which holds
// the length less one in 16 bits. RFC 1952 asks for FEXTRA to be a chain
// of subfields but no reader enforces it, so a chain that stops making
// sense — an SLEN that overruns XLEN — just ends the search.
func lengthHint(extra []byte) int {
	for len(extra) >= 4 {
		slen := int(binary.LittleEndian.Uint16(extra[2:]))
		if 4+slen > len(extra) {
			break
		}
		switch id := string(extra[:2]); {
		case id == "NX" && slen == 4:
			return int(binary.LittleEndian.Uint32(extra[4:]))
		case id == "BC" && slen == 2:
			return int(binary.LittleEndian.Uint16(extra[4:])) + 1
		}
		extra = extra[4+slen:]
	}
	return 0
}

// HintedGzipMember reports the encoded length n and the plaintext length
// the first member of src claims for itself — its length hint, and the
// ISIZE where the hint says the trailer is — when the claim holds up as
// far as can be told without decoding: the hint lies inside src and leaves
// room for a header and a trailer, what follows the member is the end of
// src or another member header, and the plaintext is no more than DEFLATE
// can pack into n bytes (1032:1). ok is false for a member with no hint as
// for one whose hint fails: either way only a decode finds its end. ok is
// still only a claim; a reader that decodes src[:n] on the strength of it
// must see the decode consume n bytes and produce isize, or fall back.
func HintedGzipMember(src []byte) (n int, isize int64, ok bool) {
	hlen, n, err := ParseGzipHeader(src)
	if err != nil || n < hlen+2+8 || n > len(src) {
		return 0, 0, false
	}
	if n < len(src) {
		if _, _, err := ParseGzipHeader(src[n:]); err != nil {
			return 0, 0, false
		}
	}
	_, size, _ := gzipTrailer(src[n-8:])
	return n, int64(size), int64(size) <= 1032*int64(n)
}

// GzipWrapHeader frames a raw DEFLATE stream with a full header.
func GzipWrapHeader(deflated, plain []byte, h GzipHeader) ([]byte, error) {
	out, err := h.Append(make([]byte, 0, len(deflated)+64))
	if err != nil {
		return nil, err
	}
	return AppendGzipTrailer(append(out, deflated...), checksum.Sum32(plain), len(plain)), nil
}
