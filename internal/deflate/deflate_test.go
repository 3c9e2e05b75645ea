package deflate

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nxzip/internal/bitio"
	"nxzip/internal/lz77"
)

func corpusInputs(tb testing.TB) map[string][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1234))
	random := make([]byte, 80000)
	rng.Read(random)
	text := []byte(strings.Repeat("It was the best of times, it was the worst of times. ", 2000))
	jsonish := bytes.Repeat([]byte(`{"ts":1700000000,"level":"INFO","msg":"request served","latency_us":123}`+"\n"), 900)
	skewed := make([]byte, 60000)
	for i := range skewed {
		skewed[i] = byte(rng.Intn(3)) * 17
	}
	return map[string][]byte{
		"empty":   {},
		"one":     {42},
		"tiny":    []byte("hello hello hello"),
		"text":    text,
		"jsonish": jsonish,
		"random":  random,
		"zeros":   make([]byte, 100000),
		"skewed":  skewed,
		"exact64k": func() []byte {
			b := make([]byte, 65535)
			rng.Read(b)
			return b
		}(),
	}
}

// stdlibInflate decodes a raw DEFLATE stream with compress/flate.
func stdlibInflate(tb testing.TB, data []byte) []byte {
	tb.Helper()
	r := flate.NewReader(bytes.NewReader(data))
	out, err := io.ReadAll(r)
	if err != nil {
		tb.Fatalf("stdlib inflate: %v", err)
	}
	return out
}

func TestCompressRoundTripAllModes(t *testing.T) {
	for name, src := range corpusInputs(t) {
		for _, mode := range []BlockMode{ModeAuto, ModeFixed, ModeDynamic, ModeStored} {
			comp, err := Compress(src, Options{Level: 6, Mode: mode})
			if err != nil {
				t.Fatalf("%s/%s: compress: %v", name, mode, err)
			}
			// Our inflater.
			got, err := Decompress(comp, InflateOptions{})
			if err != nil {
				t.Fatalf("%s/%s: our inflate: %v", name, mode, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s/%s: our inflate mismatch", name, mode)
			}
			// Cross-validation: stdlib must accept our bits.
			if sgot := stdlibInflate(t, comp); !bytes.Equal(sgot, src) {
				t.Fatalf("%s/%s: stdlib inflate mismatch", name, mode)
			}
		}
	}
}

func TestCompressAllLevels(t *testing.T) {
	src := corpusInputs(t)["text"]
	var prevLen int
	for level := 1; level <= 9; level++ {
		comp, err := Compress(src, Options{Level: level})
		if err != nil {
			t.Fatal(err)
		}
		if got := stdlibInflate(t, comp); !bytes.Equal(got, src) {
			t.Fatalf("level %d: mismatch", level)
		}
		if level > 1 && len(comp) > prevLen*11/10 {
			t.Fatalf("level %d output (%d) much larger than level %d (%d)", level, len(comp), level-1, prevLen)
		}
		prevLen = len(comp)
	}
}

func TestInflateStdlibOutput(t *testing.T) {
	// Our inflater must accept zlib-family encoder output: everything
	// stdlib flate emits, at every level. The differential runs one way
	// only — we also accept incomplete Huffman codes, which stdlib's
	// inflater rejects, so its verdict on arbitrary input is not ours.
	levels := []int{flate.HuffmanOnly}
	for lvl := flate.NoCompression; lvl <= flate.BestCompression; lvl++ {
		levels = append(levels, lvl)
	}
	for name, src := range corpusInputs(t) {
		for _, lvl := range levels {
			var buf bytes.Buffer
			fw, err := flate.NewWriter(&buf, lvl)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fw.Write(src); err != nil {
				t.Fatal(err)
			}
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := Decompress(buf.Bytes(), InflateOptions{})
			if err != nil {
				t.Fatalf("%s/level %d: %v", name, lvl, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s/level %d: mismatch", name, lvl)
			}
			checkEqualsReference(t, fmt.Sprintf("%s/level %d", name, lvl), buf.Bytes(), 0, len(src)+1024)
		}
	}
}

func TestHWTokenizerThroughBlockWriter(t *testing.T) {
	// The accelerator path: hardware matcher tokens through the same block
	// writer, decodable by stdlib.
	hw := lz77.NewHWMatcher(lz77.P9HWParams())
	opts := Options{Mode: ModeDynamic}
	opts.fill()
	for name, src := range corpusInputs(t) {
		w := bitio.NewWriter(nil)
		err := compressTokens(NewBlockWriter(w), src, opts, func(chunk []byte) []lz77.Token {
			toks, _ := hw.Tokenize(nil, chunk)
			return toks
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := stdlibInflate(t, w.Bytes()); !bytes.Equal(got, src) {
			t.Fatalf("%s: mismatch", name)
		}
	}
}

func TestGzipRoundTrip(t *testing.T) {
	for name, src := range corpusInputs(t) {
		gz, err := CompressGzip(src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, crc, err := DecompressGzip(gz, InflateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: mismatch", name)
		}
		if want := crc32.ChecksumIEEE(src); crc != want {
			t.Fatalf("%s: returned CRC %08x, want %08x", name, crc, want)
		}
		// stdlib gzip must accept our framing and bits.
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			t.Fatalf("%s: stdlib gzip header: %v", name, err)
		}
		sgot, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: stdlib gzip body: %v", name, err)
		}
		if !bytes.Equal(sgot, src) {
			t.Fatalf("%s: stdlib gzip mismatch", name)
		}
	}
}

func TestGzipReadStdlibOutput(t *testing.T) {
	src := corpusInputs(t)["jsonish"]
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Name = "test.json" // exercise FNAME parsing
	zw.Comment = "with comment"
	zw.Extra = []byte{1, 2, 3}
	if _, err := zw.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := DecompressGzip(buf.Bytes(), InflateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("mismatch")
	}
}

func TestZlibRoundTrip(t *testing.T) {
	src := corpusInputs(t)["text"]
	z, err := CompressZlib(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, adler, err := DecompressZlib(z, InflateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("mismatch")
	}
	if want := adler32.Checksum(src); adler != want {
		t.Fatalf("returned Adler-32 %08x, want %08x", adler, want)
	}
	// stdlib zlib accepts ours.
	zr, err := zlib.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	sgot, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sgot, src) {
		t.Fatal("stdlib mismatch")
	}
	// and we accept stdlib's.
	var buf bytes.Buffer
	sw := zlib.NewWriter(&buf)
	sw.Write(src)
	sw.Close()
	got2, _, err := DecompressZlib(buf.Bytes(), InflateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, src) {
		t.Fatal("stdlib->ours mismatch")
	}
}

func TestGzipDetectsCorruption(t *testing.T) {
	src := corpusInputs(t)["text"]
	gz, _ := CompressGzip(src, Options{})
	// CRC corruption.
	bad := append([]byte{}, gz...)
	bad[len(bad)-5] ^= 0xFF
	if _, _, err := DecompressGzip(bad, InflateOptions{}); err == nil {
		t.Fatal("corrupt CRC accepted")
	}
	// ISIZE corruption.
	bad2 := append([]byte{}, gz...)
	bad2[len(bad2)-1] ^= 0x01
	if _, _, err := DecompressGzip(bad2, InflateOptions{}); err == nil {
		t.Fatal("corrupt ISIZE accepted")
	}
	// Magic corruption.
	bad3 := append([]byte{}, gz...)
	bad3[0] = 0
	if _, _, err := DecompressGzip(bad3, InflateOptions{}); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

func TestInflateRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rejected := 0
	for i := 0; i < 200; i++ {
		garbage := make([]byte, rng.Intn(200)+1)
		rng.Read(garbage)
		if _, err := Decompress(garbage, InflateOptions{MaxOutput: 1 << 20}); err != nil {
			rejected++
		}
	}
	// Random bytes occasionally form a valid tiny stream; the vast
	// majority must be rejected cleanly (no panic).
	if rejected < 150 {
		t.Fatalf("only %d/200 garbage streams rejected", rejected)
	}
}

func TestInflateOutputLimit(t *testing.T) {
	src := make([]byte, 100000)
	comp, _ := Compress(src, Options{})
	if _, err := Decompress(comp, InflateOptions{MaxOutput: 1000}); err != ErrTooLarge {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestDecompressTail(t *testing.T) {
	src := []byte("tail test data, tail test data")
	comp, _ := Compress(src, Options{})
	withJunk := append(append([]byte{}, comp...), 0xDE, 0xAD)
	out, consumed, err := DecompressTail(withJunk, InflateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("mismatch")
	}
	if consumed != len(comp) {
		t.Fatalf("consumed %d, want %d", consumed, len(comp))
	}
}

func TestCannedDHT(t *testing.T) {
	// Build a DHT from one sample, use it to encode a similar message
	// (the accelerator's canned-DHT mode).
	sample := []byte(strings.Repeat("GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n", 100))
	similar := []byte(strings.Repeat("GET /about.html HTTP/1.1\r\nHost: example.org\r\n\r\n", 120))
	m := lz77.NewSoftMatcher(lz77.LevelParams(6))
	lf, df := CountFrequencies(m.Tokenize(nil, sample))
	// Give every symbol a nonzero floor so the canned table covers
	// anything the similar message can produce.
	for i := range lf {
		lf[i]++
	}
	for i := range df {
		df[i]++
	}
	dht, err := BuildDHT(lf, df)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compress(similar, Options{Mode: ModeDynamic, DHT: dht})
	if err != nil {
		t.Fatal(err)
	}
	if got := stdlibInflate(t, comp); !bytes.Equal(got, similar) {
		t.Fatal("canned DHT stream mismatch")
	}
}

func TestCannedDHTMissingSymbol(t *testing.T) {
	// A canned table with no code for 'z' must be rejected when the data
	// needs it.
	lf := make([]int64, NumLitLen)
	lf['a'] = 10
	lf[EndOfBlock] = 1
	df := make([]int64, NumDist)
	dht, err := BuildDHT(lf, df)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compress([]byte("zzz"), Options{Mode: ModeDynamic, DHT: dht, Level: 1})
	if err == nil {
		t.Fatal("missing-symbol DHT accepted")
	}
}

func TestAutoPicksStoredForRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 30000)
	rng.Read(src)
	auto, _ := Compress(src, Options{Mode: ModeAuto})
	if len(auto) > len(src)+200 {
		t.Fatalf("auto mode expanded random data: %d -> %d", len(src), len(auto))
	}
}

func TestMultiBlockStream(t *testing.T) {
	src := corpusInputs(t)["text"]
	comp, err := Compress(src, Options{BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if got := stdlibInflate(t, comp); !bytes.Equal(got, src) {
		t.Fatal("multi-block mismatch")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(src []byte, level8 uint8, mode8 uint8) bool {
		level := int(level8%9) + 1
		mode := BlockMode(mode8 % 4)
		comp, err := Compress(src, Options{Level: level, Mode: mode})
		if err != nil {
			return false
		}
		got, err := Decompress(comp, InflateOptions{})
		if err != nil {
			return false
		}
		return bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStoredChainOver64K(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := make([]byte, 200000)
	rng.Read(src)
	comp, err := Compress(src, Options{Mode: ModeStored, BlockSize: len(src)})
	if err != nil {
		t.Fatal(err)
	}
	if got := stdlibInflate(t, comp); !bytes.Equal(got, src) {
		t.Fatal("stored chain mismatch")
	}
}

func TestSymbolTables(t *testing.T) {
	for l := lz77.MinMatch; l <= lz77.MaxMatch; l++ {
		sym, extra, nb := LengthSymbol(l)
		base, nb2, ok := LengthFromSymbol(sym)
		if !ok || nb != nb2 {
			t.Fatalf("length %d: symbol metadata disagrees", l)
		}
		if base+int(extra) != l {
			t.Fatalf("length %d: base %d + extra %d", l, base, extra)
		}
		if int(extra) >= 1<<nb {
			t.Fatalf("length %d: extra %d overflows %d bits", l, extra, nb)
		}
	}
	for d := 1; d <= lz77.WindowSize; d++ {
		sym, extra, nb := DistSymbol(d)
		base, nb2, ok := DistFromSymbol(sym)
		if !ok || nb != nb2 {
			t.Fatalf("dist %d: symbol metadata disagrees", d)
		}
		if base+int(extra) != d {
			t.Fatalf("dist %d: base %d + extra %d", d, base, extra)
		}
		if int(extra) >= 1<<nb {
			t.Fatalf("dist %d: extra %d overflows %d bits", d, extra, nb)
		}
	}
}

func TestWriteAfterFinal(t *testing.T) {
	w := newTestWriter()
	bw := NewBlockWriter(w)
	if err := bw.WriteBlock(nil, nil, true, ModeFixed, nil); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteBlock(nil, nil, true, ModeFixed, nil); err == nil {
		t.Fatal("write after final accepted")
	}
}

func BenchmarkCompressLevel1(b *testing.B) { benchCompress(b, Options{Level: 1}) }
func BenchmarkCompressLevel6(b *testing.B) { benchCompress(b, Options{Level: 6}) }
func BenchmarkCompressLevel9(b *testing.B) { benchCompress(b, Options{Level: 9}) }
func BenchmarkDecompress(b *testing.B) {
	src := corpusInputs(b)["text"]
	comp, _ := Compress(src, Options{})
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(comp, InflateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCompress(b *testing.B, opts Options) {
	src := corpusInputs(b)["text"]
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := Compress(src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func newTestWriter() *bitio.Writer { return bitio.NewWriter(nil) }

func TestInspectStream(t *testing.T) {
	src := corpusInputs(t)["text"]
	comp, err := Compress(src, Options{BlockSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	infos, err := InspectStream(comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != (len(src)+32<<10-1)/(32<<10) {
		t.Fatalf("blocks = %d", len(infos))
	}
	var total, bits int
	for i, b := range infos {
		total += b.OutBytes
		bits += b.HeaderBits + b.DataBits
		if (b.Final) != (i == len(infos)-1) {
			t.Fatalf("final flag wrong at block %d", i)
		}
		if b.Literals+b.MatchBytes != b.OutBytes {
			t.Fatalf("block %d: literals %d + match bytes %d != out %d",
				i, b.Literals, b.MatchBytes, b.OutBytes)
		}
	}
	if total != len(src) {
		t.Fatalf("inspected %d bytes, want %d", total, len(src))
	}
	// All bits accounted for (stream may have byte-align padding at end).
	if bits > len(comp)*8 || bits < (len(comp)-1)*8 {
		t.Fatalf("bits %d vs stream %d", bits, len(comp)*8)
	}
}

func TestInspectStreamStoredAndFixed(t *testing.T) {
	for _, mode := range []BlockMode{ModeStored, ModeFixed} {
		comp, err := Compress([]byte("inspect me, inspect me"), Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		infos, err := InspectStream(comp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 1 {
			t.Fatalf("%v: %d blocks", mode, len(infos))
		}
		wantType := 0
		if mode == ModeFixed {
			wantType = 1
		}
		if infos[0].Type != wantType {
			t.Fatalf("%v: type %d", mode, infos[0].Type)
		}
	}
}

func TestInspectStreamCorrupt(t *testing.T) {
	if _, err := InspectStream([]byte{0x07, 0xFF}, 0); err == nil {
		t.Fatal("corrupt stream inspected cleanly")
	}
	src := make([]byte, 100000)
	comp, _ := Compress(src, Options{})
	if _, err := InspectStream(comp, 1000); err != ErrTooLarge {
		t.Fatalf("limit not enforced: %v", err)
	}
}
