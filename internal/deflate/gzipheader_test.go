package deflate

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"
	"time"
)

func TestGzipHeaderRoundTrip(t *testing.T) {
	h := GzipHeader{
		Name:      "data.json",
		Comment:   "nightly export",
		Extra:     []byte{1, 2, 3, 4},
		ModTime:   time.Unix(1700000000, 0),
		OS:        3, // unix
		HeaderCRC: true,
	}
	raw, err := h.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, _, err := ParseGzipHeader(raw); err != nil || n != len(raw) {
		t.Fatalf("parsed %d of %d bytes, err %v", n, len(raw), err)
	}
	// compress/gzip reads the header alone, and checks FHCRC when the flag
	// says there is one.
	got, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != h.Name || got.Comment != h.Comment || !bytes.Equal(got.Extra, h.Extra) {
		t.Fatalf("fields: %+v", got.Header)
	}
	if !got.ModTime.Equal(h.ModTime) || got.OS != h.OS || raw[3]&gzFHCRC == 0 {
		t.Fatalf("meta: %+v, FLG %08b", got.Header, raw[3])
	}
}

func TestGzipHeaderStdlibInterop(t *testing.T) {
	src := []byte("header interop payload, header interop payload")
	body, err := Compress(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := GzipWrapHeader(body, src, GzipHeader{
		Name: "x.txt", Comment: "c", ModTime: time.Unix(1600000000, 0), OS: 3, HeaderCRC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if zr.Name != "x.txt" || zr.Comment != "c" {
		t.Fatalf("stdlib parsed name=%q comment=%q", zr.Name, zr.Comment)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("payload mismatch")
	}
	// And our full-stream reader still accepts it.
	got2, _, err := DecompressGzip(full, InflateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, src) {
		t.Fatal("our decode mismatch")
	}
}

func TestGzipHeaderParsesStdlibOutput(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Name = "from-stdlib.bin"
	zw.Comment = "stdlib header"
	zw.ModTime = time.Unix(1500000000, 0)
	zw.Write([]byte("zz"))
	zw.Close()
	// The fixed ten bytes, then both strings and their NULs.
	want := 10 + len(zw.Name) + 1 + len(zw.Comment) + 1
	if hlen, hint, err := ParseGzipHeader(buf.Bytes()); err != nil || hlen != want || hint != 0 {
		t.Fatalf("header of %d bytes with hint %d, err %v; want %d and none", hlen, hint, err, want)
	}
	if got, _, err := DecompressGzip(buf.Bytes(), InflateOptions{}); err != nil || string(got) != "zz" {
		t.Fatalf("body behind the header: %q, err %v", got, err)
	}
}

func TestGzipHeaderValidation(t *testing.T) {
	if _, err := (GzipHeader{Name: "bad\x00name"}).Append(nil); err == nil {
		t.Fatal("NUL in name accepted")
	}
	if _, err := (GzipHeader{Extra: make([]byte, 70000)}).Append(nil); err == nil {
		t.Fatal("oversized FEXTRA accepted")
	}
}

func TestGzipHeaderCRCDetectsCorruption(t *testing.T) {
	raw, err := GzipHeader{Name: "n", HeaderCRC: true}.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0xFF // corrupt the name
	if _, _, err := ParseGzipHeader(raw); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupt header under FHCRC: %v, want a checksum error", err)
	}
}

// TestGzipHeaderParserAgreesWithStdlib holds the one header walk to
// compress/gzip's: both accept or both reject, and on accept the walk
// ends where the header does and compress/gzip reads back the fields the
// header was built from. A header CRC that does not match used to be
// stepped over.
func TestGzipHeaderParserAgreesWithStdlib(t *testing.T) {
	plain := []byte("header table payload")
	body, err := Compress(plain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	member := func(hdr []byte) []byte {
		return AppendGzipTrailer(append(bytes.Clone(hdr), body...), crc32.ChecksumIEEE(plain), len(plain))
	}
	type row struct {
		name string
		hdr  []byte
		hint int        // what ParseGzipHeader must report when the header is sound
		from GzipHeader // what a sound header was built from
	}
	var rows []row
	for flags := 0; flags < 16; flags++ {
		h := GzipHeader{HeaderCRC: flags&1 != 0}
		if flags&2 != 0 {
			h.Extra = []byte("ZZ\x03\x00abc")
		}
		if flags&4 != 0 {
			h.Name = "na\xEFve.txt" // Latin-1
		}
		if flags&8 != 0 {
			h.Comment = "a comment"
		}
		hdr, err := h.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{name: fmt.Sprintf("flags %04b", flags), hdr: hdr, from: h})
		if h.HeaderCRC {
			bad := bytes.Clone(hdr)
			bad[len(bad)-1] ^= 0x01
			rows = append(rows, row{name: fmt.Sprintf("flags %04b, wrong FHCRC", flags), hdr: bad})
			bad = bytes.Clone(hdr)
			bad[4] ^= 0x80 // MTIME, covered by the CRC
			rows = append(rows, row{name: fmt.Sprintf("flags %04b, header changed under FHCRC", flags), hdr: bad})
		}
	}
	extra := func(name string, x []byte, hint int) {
		h := GzipHeader{Extra: x, Name: "after-extra"}
		hdr, err := h.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{name: name, hdr: hdr, hint: hint, from: h})
	}
	extra("length subfield", []byte("NX\x04\x00\x39\x30\x00\x00"), 12345)
	extra("length subfield behind another", []byte("ZZ\x01\x00!NX\x04\x00\x39\x30\x00\x00"), 12345)
	extra("BGZF subfield", []byte("BC\x02\x00\xFF\x7F"), 0x8000)
	extra("length subfield of the wrong size", []byte("NX\x02\x00\x39\x30"), 0)
	extra("subfield overrunning XLEN", []byte("NX\x04\x00\x39\x30"), 0)
	extra("overrunning subfield before a sound one", []byte("ZZ\xFF\x00NX\x04\x00\x39\x30\x00\x00"), 0)
	extra("not subfields at all", []byte{1, 2, 3, 4, 5}, 0)
	extra("three stray bytes", []byte("NX\x04"), 0)

	sound, _ := GzipHeader{Extra: []byte("NX\x04\x00\x39\x30\x00\x00"), Name: "n", Comment: "c", HeaderCRC: true}.Append(nil)
	for cut := 0; cut < len(sound); cut++ {
		rows = append(rows, row{name: fmt.Sprintf("header cut at %d of %d", cut, len(sound)), hdr: sound[:cut]})
	}
	long := bytes.Clone(sound)
	long[10], long[11] = 0xFF, 0xFF // XLEN past everything that follows
	rows = append(rows, row{name: "XLEN past the end", hdr: long},
		row{name: "reserved flag bits", hdr: []byte{0x1F, 0x8B, 8, 0xE0, 0, 0, 0, 0, 0, 3}},
		row{name: "not deflate", hdr: []byte{0x1F, 0x8B, 7, 0, 0, 0, 0, 0, 0, 3}},
		row{name: "not gzip", hdr: []byte{0x1F, 0x8C, 8, 0, 0, 0, 0, 0, 0, 3}})

	for _, r := range rows {
		// A cut header gets no body: what follows it would be read as header.
		stream := r.hdr
		if !strings.HasPrefix(r.name, "header cut") {
			stream = member(r.hdr)
		}
		zr, stdErr := gzip.NewReader(bytes.NewReader(stream))
		hlen, hint, err := ParseGzipHeader(stream)
		_, _, _, unwrapErr := GzipUnwrap(stream)
		if (err == nil) != (stdErr == nil) {
			t.Errorf("%s: ParseGzipHeader %v, compress/gzip %v", r.name, err, stdErr)
			continue
		}
		if stdErr != nil {
			if unwrapErr == nil {
				t.Errorf("%s: GzipUnwrap accepts what compress/gzip refuses: %v", r.name, stdErr)
			}
			continue
		}
		if hlen != len(r.hdr) || hint != r.hint {
			t.Errorf("%s: header length %d of %d, hint %d want %d", r.name, hlen, len(r.hdr), hint, r.hint)
		}
		// compress/gzip hands the strings back as UTF-8; the bytes are Latin-1.
		latin1 := func(s string) string {
			b := make([]rune, 0, len(s))
			for i := 0; i < len(s); i++ {
				b = append(b, rune(s[i]))
			}
			return string(b)
		}
		if latin1(r.from.Name) != zr.Name || latin1(r.from.Comment) != zr.Comment || !bytes.Equal(r.from.Extra, zr.Extra) {
			t.Errorf("%s: built from %+v, compress/gzip reads %+v", r.name, r.from, zr.Header)
		}
		if got, _, err := DecompressGzip(stream, InflateOptions{}); err != nil || !bytes.Equal(got, plain) {
			t.Errorf("%s: DecompressGzip: %v", r.name, err)
		}
		if got, used, _, err := DecompressGzipTail(append(bytes.Clone(stream), "next"...), InflateOptions{}); err != nil || !bytes.Equal(got, plain) || used != len(stream) {
			t.Errorf("%s: DecompressGzipTail: %d of %d bytes, %v", r.name, used, len(stream), err)
		}
	}
}

// TestHintedGzipMember: a hint is taken only as far as it can be checked
// without decoding.
func TestHintedGzipMember(t *testing.T) {
	plain := bytes.Repeat([]byte("hinted member "), 40)
	gz, err := CompressGzip(plain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stamped := append(make([]byte, MemberIndexLen), gz...)
	IndexGzipMember(stamped)
	if hlen, hint, err := ParseGzipHeader(stamped); err != nil || hlen != 20 || hint != len(stamped) {
		t.Fatalf("stamped header: length %d, hint %d of %d, err %v", hlen, hint, len(stamped), err)
	}
	if got, used, _, err := DecompressGzipTail(stamped, InflateOptions{}); err != nil || !bytes.Equal(got, plain) || used != len(stamped) {
		t.Fatalf("stamped member does not decode: %d of %d bytes, %v", used, len(stamped), err)
	}
	claim := func(m []byte, n int) []byte {
		m = bytes.Clone(m)
		binary.LittleEndian.PutUint32(m[16:], uint32(n))
		return m
	}
	two := append(bytes.Clone(stamped), stamped...)
	for _, tc := range []struct {
		name string
		src  []byte
		ok   bool
	}{
		{"alone", stamped, true},
		{"before another member", two, true},
		{"before junk", append(bytes.Clone(stamped), "junk after the member"...), false},
		{"no hint", gz, false},
		{"hint of zero", claim(stamped, 0), false},
		{"hint inside the header", claim(two, 27), false},
		{"hint short by one", claim(two, len(stamped)-1), false},
		{"hint long by one", claim(two, len(stamped)+1), false},
		{"hint past the end", claim(two, len(two)+1), false},
		{"hint spanning both members", claim(two, len(two)), true}, // only a decode can tell
		{"cut short", stamped[:len(stamped)-1], false},
	} {
		n, isize, ok := HintedGzipMember(tc.src)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
		}
		if want := len(stamped); ok && tc.name != "hint spanning both members" && (n != want || isize != int64(len(plain))) {
			t.Errorf("%s: member of %d bytes inflating to %d, want %d and %d", tc.name, n, isize, want, len(plain))
		}
	}
	// The smallest member there is — an empty fixed block — claiming more
	// than 1032 bytes out for each byte in.
	tiny := append(make([]byte, MemberIndexLen), 0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	IndexGzipMember(tiny)
	if _, isize, ok := HintedGzipMember(tiny); !ok || isize != 0 {
		t.Fatalf("empty stamped member: isize %d, ok %v", isize, ok)
	}
	binary.LittleEndian.PutUint32(tiny[len(tiny)-4:], uint32(1032*len(tiny)+1))
	if _, _, ok := HintedGzipMember(tiny); ok {
		t.Fatal("a claim past DEFLATE's best ratio was taken")
	}
	binary.LittleEndian.PutUint32(tiny[len(tiny)-4:], uint32(1032*len(tiny)))
	if _, _, ok := HintedGzipMember(tiny); !ok {
		t.Fatal("a claim at DEFLATE's best ratio was refused")
	}
}
