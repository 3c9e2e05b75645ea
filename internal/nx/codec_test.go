package nx

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"nxzip/internal/lz4"
	"nxzip/internal/x842"
)

func TestCodecSetSemantics(t *testing.T) {
	var all CodecSet // zero advertised set = everything
	for _, c := range AllCodecs() {
		if !all.Supports(Codecs(c)) {
			t.Fatalf("zero set does not support %s", c)
		}
	}
	only := Codecs(CodecDeflate)
	if only.Supports(Codecs(CodecLZ4)) {
		t.Fatal("deflate-only set claims LZ4 support")
	}
	if !only.Supports(0) {
		t.Fatal("zero need (FCMove) must be supported by any set")
	}
	both := Codecs(CodecDeflate, CodecLZ4)
	if !both.Supports(Codecs(CodecLZ4)) || both.Supports(Codecs(Codec842)) {
		t.Fatalf("two-codec set semantics wrong: %s", both)
	}
	if got := both.String(); got != "deflate+lz4" {
		t.Fatalf("CodecSet.String() = %q", got)
	}
	if got := (CodecSet(0)).String(); got != "all" {
		t.Fatalf("zero CodecSet.String() = %q", got)
	}
}

func TestRequiredCodecs(t *testing.T) {
	cases := []struct {
		crb  CRB
		want CodecSet
	}{
		{CRB{Func: FCCompressDHT}, Codecs(CodecDeflate)},
		{CRB{Func: FC842Decompress}, Codecs(Codec842)},
		{CRB{Func: FCLZ4Compress}, Codecs(CodecLZ4)},
		{CRB{Func: FCMove}, 0},
		{CRB{Func: FCTranscode, SourceCodec: CodecLZ4, TargetCodec: CodecDeflate}, Codecs(CodecLZ4, CodecDeflate)},
	}
	for _, c := range cases {
		if got := c.crb.RequiredCodecs(); got != c.want {
			t.Fatalf("RequiredCodecs(%s) = %s, want %s", c.crb.Func, got, c.want)
		}
	}
}

// TestEngineCapabilityGate: a deflate-only engine NACKs block-codec and
// transcode requests with CCInvalidCRB before spending any cycles, while
// an unconstrained engine serves them.
func TestEngineCapabilityGate(t *testing.T) {
	cfg := P9Device()
	cfg.Engine.Codecs = Codecs(CodecDeflate)
	ctx := NewDevice(cfg).OpenContext(100)
	src := bytes.Repeat([]byte("capability gate "), 512)

	csb, rep, err := ctx.Submit(&CRB{Func: FCLZ4Compress, Input: src})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CC != CCInvalidCRB {
		t.Fatalf("deflate-only engine served LZ4: CC=%v", csb.CC)
	}
	if !strings.Contains(csb.Detail, "lz4") {
		t.Fatalf("rejection detail does not name the codec: %q", csb.Detail)
	}
	if rep != nil && rep.TotalCycles != 0 {
		t.Fatalf("rejected request charged %d cycles, want 0", rep.TotalCycles)
	}
	// DEFLATE still works.
	if csb, _, err := ctx.Submit(&CRB{Func: FCCompressDHT, Wrap: WrapGzip, Input: src}); err != nil || csb.CC != CCSuccess {
		t.Fatalf("deflate on deflate-only engine: cc=%v err=%v", csb.CC, err)
	}
	// Transcode needs both sides: deflate-only cannot serve lz4→deflate.
	csb2, _, err := ctx.Submit(&CRB{Func: FCTranscode, SourceCodec: CodecLZ4, TargetCodec: CodecDeflate, Input: lz4.Compress(src)})
	if err != nil || csb2.CC != CCInvalidCRB {
		t.Fatalf("deflate-only engine accepted transcode: cc=%v err=%v", csb2.CC, err)
	}
}

// TestLZ4FuncCodes: the LZ4 function codes round-trip through the
// engine and interoperate with the pure-Go block codec.
func TestLZ4FuncCodes(t *testing.T) {
	ctx := NewDevice(P9Device()).OpenContext(100)
	src := bytes.Repeat([]byte("lz4 hardware block lz4 hardware block "), 300)

	csb, rep, err := ctx.Submit(&CRB{Func: FCLZ4Compress, Input: src})
	if err != nil || csb.CC != CCSuccess {
		t.Fatalf("FCLZ4Compress: cc=%v err=%v", csb.CC, err)
	}
	if rep.TotalCycles <= 0 {
		t.Fatal("LZ4 compress charged no cycles")
	}
	// Interop: software decode of the engine's block.
	plain, err := lz4.Decompress(csb.Output, len(src)+16)
	if err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("software decode of engine LZ4 block: %v", err)
	}
	// Engine decode of a software block.
	back, _, err := ctx.Submit(&CRB{Func: FCLZ4Decompress, Input: lz4.Compress(src), TargetCap: len(src) + 16, MaxOutput: len(src) + 16})
	if err != nil || back.CC != CCSuccess || !bytes.Equal(back.Output, src) {
		t.Fatalf("engine decode of software LZ4 block: cc=%v err=%v", back.CC, err)
	}
	// Corrupt block → CCDataCorrupt.
	bad, _, err := ctx.Submit(&CRB{Func: FCLZ4Decompress, Input: []byte{0xF7, 0x01}, TargetCap: 1 << 10, MaxOutput: 1 << 10})
	if err != nil || bad.CC != CCDataCorrupt {
		t.Fatalf("corrupt LZ4 block: cc=%v err=%v", bad.CC, err)
	}
	if !errors.Is(bad.CC.Err(), ErrDataCorrupt) {
		t.Fatal("CCDataCorrupt does not map to ErrDataCorrupt")
	}
}

// TestTranscodeEngine: FCTranscode decodes the source codec and
// re-encodes the target in one request, charging both passes' cycles.
func TestTranscodeEngine(t *testing.T) {
	ctx := NewDevice(P9Device()).OpenContext(100)
	src := bytes.Repeat([]byte("transcode me through one round trip "), 400)

	// lz4 → deflate(gzip): output must gunzip back to the plaintext.
	blk := lz4.Compress(src)
	csb, rep, err := ctx.Submit(&CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: CodecLZ4, TargetCodec: CodecDeflate, Input: blk})
	if err != nil || csb.CC != CCSuccess {
		t.Fatalf("transcode lz4→gzip: cc=%v err=%v", csb.CC, err)
	}
	if csb.SPBC != len(blk) {
		t.Fatalf("transcode SPBC = %d, want %d", csb.SPBC, len(blk))
	}
	back, _, err := ctx.Submit(&CRB{Func: FCDecompress, Wrap: WrapGzip, Input: csb.Output, TargetCap: len(src) + 64, MaxOutput: len(src) + 64})
	if err != nil || !bytes.Equal(back.Output, src) {
		t.Fatalf("gunzip of transcoded stream: %v", err)
	}
	// Both passes charged: more cycles than a lone LZ4 decode.
	dec, _, _ := ctx.Submit(&CRB{Func: FCLZ4Decompress, Input: blk, TargetCap: len(src) + 16, MaxOutput: len(src) + 16})
	_ = dec
	if rep.TotalCycles <= 0 {
		t.Fatal("transcode charged no cycles")
	}

	// deflate(gzip) → 842 and back.
	csb2, _, err := ctx.Submit(&CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: CodecDeflate, TargetCodec: Codec842, Input: csb.Output})
	if err != nil || csb2.CC != CCSuccess {
		t.Fatalf("transcode gzip→842: cc=%v err=%v", csb2.CC, err)
	}
	p842, _, err := ctx.Submit(&CRB{Func: FC842Decompress, Input: csb2.Output, TargetCap: len(src) + 64, MaxOutput: len(src) + 64})
	if err != nil || !bytes.Equal(p842.Output, src) {
		t.Fatalf("842 decode of transcoded stream: %v", err)
	}

	// Same codec both sides is an invalid CRB.
	same, _, err := ctx.Submit(&CRB{Func: FCTranscode, SourceCodec: CodecLZ4, TargetCodec: CodecLZ4, Input: blk})
	if err != nil || same.CC != CCInvalidCRB {
		t.Fatalf("same-codec transcode: cc=%v err=%v", same.CC, err)
	}
}

// TestDecodeBudget: every decoder stops at min(MaxOutput, TargetCap). A
// bomb is refused as target space for the price of one buffer, not
// materialized and then measured; a sound stream that trips the budget is
// target space too, never corruption; and an exact-fit buffer succeeds.
func TestDecodeBudget(t *testing.T) {
	ctx := NewDevice(P9Device()).OpenContext(100)
	plain := bytes.Repeat([]byte("a sound stream, just longer than its budget. "), 200)
	bomb := make([]byte, 16<<20)
	for _, c := range []struct {
		name   string
		decomp CRB
		encode func([]byte) []byte
	}{
		{"deflate", CRB{Func: FCDecompress, Wrap: WrapRaw}, func(p []byte) []byte {
			csb, _, err := ctx.Submit(&CRB{Func: FCCompressFHT, Wrap: WrapRaw, Input: p})
			if err != nil || csb.CC != CCSuccess {
				t.Fatalf("deflate: cc=%v err=%v", csb.CC, err)
			}
			return csb.Output
		}},
		{"lz4", CRB{Func: FCLZ4Decompress}, lz4.Compress},
		{"842", CRB{Func: FC842Decompress}, x842.Compress},
	} {
		submit := func(input []byte, targetCap, maxOutput int) *CSB {
			t.Helper()
			crb := c.decomp
			crb.Input, crb.TargetCap, crb.MaxOutput = input, targetCap, maxOutput
			csb, _, err := ctx.Submit(&crb)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return csb
		}
		comp := c.encode(plain)
		n := len(plain)
		if csb := submit(comp, n, 0); csb.CC != CCSuccess || !bytes.Equal(csb.Output, plain) {
			t.Errorf("%s: exact-fit target: cc=%v %q", c.name, csb.CC, csb.Detail)
		}
		if csb := submit(comp, n, n); csb.CC != CCSuccess || !bytes.Equal(csb.Output, plain) {
			t.Errorf("%s: exact budget: cc=%v %q", c.name, csb.CC, csb.Detail)
		}
		for _, lim := range [][2]int{{n - 1, 0}, {1 << 20, n - 1}, {n - 1, 1 << 20}, {1, 1}} {
			csb := submit(comp, lim[0], lim[1])
			if csb.CC != CCTargetSpace || !strings.Contains(csb.Detail, "exceeds") || strings.Contains(csb.Detail, "corrupt") {
				t.Errorf("%s: TargetCap %d MaxOutput %d: cc=%v %q, want target space", c.name, lim[0], lim[1], csb.CC, csb.Detail)
			}
		}
		blown := c.encode(bomb)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		csb := submit(blown, 64<<10, 0)
		runtime.ReadMemStats(&after)
		if csb.CC != CCTargetSpace {
			t.Errorf("%s: bomb: cc=%v %q, want target space", c.name, csb.CC, csb.Detail)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing a %d-byte bomb at a 64 KiB target allocated %d bytes", c.name, len(bomb), grew)
		}
	}

	// Transcode's decode pass answers the same way, whichever codec it reads.
	for _, src := range []Codec{CodecLZ4, Codec842} {
		csb, _, err := ctx.Submit(&CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: src, TargetCodec: CodecDeflate,
			Input: codecs[src].encode(nil, plain), MaxOutput: len(plain) - 1})
		if err != nil || csb.CC != CCTargetSpace {
			t.Errorf("transcode from %s over its budget: cc=%v err=%v %q", src, csb.CC, err, csb.Detail)
		}
	}
}

// TestBlockCompressInputLimit: a source past the codec's position limit
// is an invalid CRB, not a wrapped match table. The limit itself is tested
// on its arithmetic in x842; here a small stand-in shows the engine
// enforces whatever the table says.
func TestBlockCompressInputLimit(t *testing.T) {
	if codecs[Codec842].maxInput != x842.MaxInput {
		t.Fatalf("842's limit is %d, the encoder's is %d", codecs[Codec842].maxInput, x842.MaxInput)
	}
	saved := codecs[Codec842]
	defer func() { codecs[Codec842] = saved }()
	codecs[Codec842].maxInput = 1000

	ctx := NewDevice(P9Device()).OpenContext(100)
	csb, _, err := ctx.Submit(&CRB{Func: FC842Compress, Input: make([]byte, 1000)})
	if err != nil || csb.CC != CCSuccess {
		t.Fatalf("source at the limit: cc=%v err=%v", csb.CC, err)
	}
	csb, _, err = ctx.Submit(&CRB{Func: FC842Compress, Input: make([]byte, 1001)})
	if err != nil || csb.CC != CCInvalidCRB || !strings.Contains(csb.Detail, "1001 bytes exceeds") {
		t.Fatalf("source past the limit: cc=%v err=%v %q", csb.CC, err, csb.Detail)
	}
}
