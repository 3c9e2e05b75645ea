package deflate

import (
	"bytes"
	"compress/gzip"
	"io"
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
	got, n, err := ParseGzipHeaderFull(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Fatalf("parsed %d of %d bytes", n, len(raw))
	}
	if got.Name != h.Name || got.Comment != h.Comment || !bytes.Equal(got.Extra, h.Extra) {
		t.Fatalf("fields: %+v", got)
	}
	if !got.ModTime.Equal(h.ModTime) || got.OS != h.OS || !got.HeaderCRC {
		t.Fatalf("meta: %+v", got)
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
	h, _, err := ParseGzipHeaderFull(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "from-stdlib.bin" || h.Comment != "stdlib header" {
		t.Fatalf("parsed %+v", h)
	}
	if h.ModTime.Unix() != 1500000000 {
		t.Fatalf("mtime %v", h.ModTime)
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
	if _, _, err := ParseGzipHeaderFull(raw); err == nil {
		t.Fatal("corrupt header accepted despite FHCRC")
	}
}
