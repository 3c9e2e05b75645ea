package nx

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/lz4"
	"nxzip/internal/x842"
)

// Every failure completion, pinned. TestTranslateFollowsOutput holds the
// successes and the target-space answer to a short target; this holds the
// rest, per function code on P9 and z15: a corrupt source in every codec
// and wrap, a decode past its output budget, a canned-DHT compress without
// a table, a segment or resume with a framing wrap, an 842 source past the
// encoder's limit (a stand-in limit, as in TestBlockCompressInputLimit), a
// transcode with one codec on both sides, an unknown function code and a
// codec the engine does not serve. Each row runs on a device of its own
// with mapped operands, again through the synchronous interface where the
// device has one, and all of a device's rows once more as one batch
// envelope (chained setup and completion). A row records CC, Detail,
// SPBC/TPBC, the ERAT lookups and every cycle stage. The rows are pinned in
// testdata/failure_completions.txt (regenerate with -update, only in a
// change that means to move the model).

const failureGoldenPath = "testdata/failure_completions.txt"

// failureStandIn842 is the 842 encoder's limit while the pin runs: a
// source past the real one is 2 GiB.
const failureStandIn842 = 1000

// failureInputs are the streams a device's rows read.
type failureInputs struct {
	plain, raw, gzip, zlib, members, b842, blz4 []byte
}

func newFailureInputs(t *testing.T) *failureInputs {
	t.Helper()
	plain := corpus.Generate(corpus.Text, 4<<10, goldenSeed)
	raw, err := deflate.Compress(plain, deflate.Options{Level: 6})
	if err != nil {
		t.Fatal(err)
	}
	gz := deflate.GzipWrap(raw, plain)
	return &failureInputs{
		plain: plain, raw: raw, gzip: gz, zlib: deflate.ZlibWrap(raw, plain),
		members: append(append([]byte{}, gz...), gz...),
		b842:    x842.Compress(plain), blz4: lz4.Compress(plain),
	}
}

// corrupt is a stream cut in half. An lz4 block may end between any two
// sequences, so its corrupt block is one whose match reaches before the
// start of the output.
func corrupt(b []byte) []byte { return b[:len(b)/2] }

var corruptLZ4 = []byte{0x10, 'a', 5, 0}

// failureCases are the rows. want is the completion code each must answer.
var failureCases = []struct {
	name string
	want CC
	crb  func(in *failureInputs) CRB
}{
	{"decompress-gzip/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapGzip, Input: corrupt(in.gzip)}
	}},
	{"decompress-gzip/bad-trailer", CCDataCorrupt, func(in *failureInputs) CRB {
		b := append([]byte{}, in.gzip...)
		b[len(b)-5] ^= 0xff
		return CRB{Func: FCDecompress, Wrap: WrapGzip, Input: b}
	}},
	{"decompress-zlib/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapZlib, Input: corrupt(in.zlib)}
	}},
	{"decompress-raw/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapRaw, Input: corrupt(in.raw)}
	}},
	{"decompress-member/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapGzip, FirstMemberOnly: true, Input: corrupt(in.gzip)}
	}},
	{"842-decompress/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FC842Decompress, Input: corrupt(in.b842)}
	}},
	{"lz4-decompress/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FCLZ4Decompress, Input: corruptLZ4}
	}},
	{"resume/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapRaw, DecompState: NewDecompState(0), Input: corrupt(in.raw)}
	}},
	{"transcode-gzip-to-lz4/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: CodecDeflate, TargetCodec: CodecLZ4, Input: corrupt(in.gzip)}
	}},
	{"transcode-zlib-to-842/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FCTranscode, Wrap: WrapZlib, SourceCodec: CodecDeflate, TargetCodec: Codec842, Input: corrupt(in.zlib)}
	}},
	{"transcode-raw-to-lz4/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FCTranscode, Wrap: WrapRaw, SourceCodec: CodecDeflate, TargetCodec: CodecLZ4, Input: corrupt(in.raw)}
	}},
	{"transcode-842-to-gzip/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: Codec842, TargetCodec: CodecDeflate, Input: corrupt(in.b842)}
	}},
	{"transcode-lz4-to-zlib/corrupt", CCDataCorrupt, func(in *failureInputs) CRB {
		return CRB{Func: FCTranscode, Wrap: WrapZlib, SourceCodec: CodecLZ4, TargetCodec: CodecDeflate, Input: corruptLZ4}
	}},
	{"decompress-gzip/over-budget", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapGzip, Input: in.gzip, MaxOutput: len(in.plain) - 1, TargetCap: 4 * len(in.plain)}
	}},
	{"decompress-zlib/over-budget", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapZlib, Input: in.zlib, MaxOutput: len(in.plain) - 1, TargetCap: 4 * len(in.plain)}
	}},
	{"decompress-raw/over-budget", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapRaw, Input: in.raw, MaxOutput: len(in.plain) - 1, TargetCap: 4 * len(in.plain)}
	}},
	{"decompress-member/over-budget", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapGzip, FirstMemberOnly: true, Input: in.members, MaxOutput: len(in.plain) - 1, TargetCap: 4 * len(in.plain)}
	}},
	{"decompress-member/short-target", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapGzip, FirstMemberOnly: true, Input: in.members, MaxOutput: 4 * len(in.plain), TargetCap: 1000}
	}},
	{"842-decompress/over-budget", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FC842Decompress, Input: in.b842, MaxOutput: len(in.plain) - 1, TargetCap: 4 * len(in.plain)}
	}},
	{"lz4-decompress/over-budget", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCLZ4Decompress, Input: in.blz4, MaxOutput: len(in.plain) - 1, TargetCap: 4 * len(in.plain)}
	}},
	{"resume/short-target", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapRaw, DecompState: NewDecompState(0), Input: in.raw, TargetCap: 1000}
	}},
	{"transcode-gzip-to-lz4/over-budget", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: CodecDeflate, TargetCodec: CodecLZ4, Input: in.gzip, MaxOutput: len(in.plain) - 1}
	}},
	{"transcode-842-to-gzip/over-budget", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: Codec842, TargetCodec: CodecDeflate, Input: in.b842, MaxOutput: len(in.plain) - 1}
	}},
	{"transcode-lz4-to-raw/short-target", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCTranscode, Wrap: WrapRaw, SourceCodec: CodecLZ4, TargetCodec: CodecDeflate, Input: in.blz4, TargetCap: 100}
	}},
	{"compress-fht/short-target", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: in.plain, TargetCap: 100}
	}},
	{"compress-dht/short-target", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCCompressDHT, Wrap: WrapZlib, Input: in.plain, TargetCap: 100}
	}},
	{"842-compress/short-target", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FC842Compress, Input: in.plain[:failureStandIn842], TargetCap: 100}
	}},
	{"lz4-compress/short-target", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCLZ4Compress, Input: in.plain, TargetCap: 100}
	}},
	{"move/short-target", CCTargetSpace, func(in *failureInputs) CRB {
		return CRB{Func: FCMove, Input: in.plain, TargetCap: 100}
	}},
	{"compress-canned/no-table", CCInvalidCRB, func(in *failureInputs) CRB {
		return CRB{Func: FCCompressCannedDHT, Wrap: WrapGzip, Input: in.plain}
	}},
	{"compress-fht/segment-gzip", CCInvalidCRB, func(in *failureInputs) CRB {
		return CRB{Func: FCCompressFHT, Wrap: WrapGzip, NotFinal: true, Input: in.plain}
	}},
	{"compress-dht/segment-zlib", CCInvalidCRB, func(in *failureInputs) CRB {
		return CRB{Func: FCCompressDHT, Wrap: WrapZlib, NotFinal: true, Input: in.plain}
	}},
	{"resume/gzip", CCInvalidCRB, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapGzip, DecompState: NewDecompState(0), Input: in.gzip}
	}},
	{"resume/zlib", CCInvalidCRB, func(in *failureInputs) CRB {
		return CRB{Func: FCDecompress, Wrap: WrapZlib, DecompState: NewDecompState(0), Input: in.zlib}
	}},
	{"842-compress/over-limit", CCInvalidCRB, func(in *failureInputs) CRB {
		return CRB{Func: FC842Compress, Input: in.plain[:failureStandIn842+1]}
	}},
	{"transcode-lz4-to-842/over-limit", CCInvalidCRB, func(in *failureInputs) CRB {
		return CRB{Func: FCTranscode, SourceCodec: CodecLZ4, TargetCodec: Codec842, Input: in.blz4}
	}},
	{"transcode-deflate-to-deflate", CCInvalidCRB, func(in *failureInputs) CRB {
		return CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: CodecDeflate, TargetCodec: CodecDeflate, Input: in.gzip}
	}},
	{"transcode-lz4-to-lz4", CCInvalidCRB, func(in *failureInputs) CRB {
		return CRB{Func: FCTranscode, SourceCodec: CodecLZ4, TargetCodec: CodecLZ4, Input: in.blz4}
	}},
	{"unknown-function-code", CCInvalidCRB, func(in *failureInputs) CRB {
		return CRB{Func: FuncCode(99), Input: in.plain}
	}},
}

// failureRow renders one completion.
func failureRow(csb *CSB) string {
	b := csb.Cycles
	return fmt.Sprintf("%s %q spbc=%d tpbc=%d out=%d erat=%d setup=%d translate=%d dmain=%d lz=%d dhtgen=%d encode=%d decode=%d dmaout=%d complete=%d total=%d",
		csb.CC, csb.Detail, csb.SPBC, csb.TPBC, len(csb.Output), csb.ERATHits+csb.ERATMisses,
		b.Setup, b.Translate, b.DMAIn, b.LZ, b.DHTGen, b.Encode, b.Decode, b.DMAOut, b.Complete, b.Total)
}

// mapFailureOperands maps the source and a target of the request's budget
// (its TargetCap, or the engine's default) on ctx's device.
func mapFailureOperands(t *testing.T, ctx *Context, crb *CRB) {
	t.Helper()
	var err error
	if crb.SourceVA, err = ctx.MapBuffer(len(crb.Input), true); err != nil {
		t.Fatal(err)
	}
	if crb.TargetVA, err = ctx.MapBuffer(targetCap(crb), true); err != nil {
		t.Fatal(err)
	}
}

func TestFailureCompletions(t *testing.T) {
	saved := codecs[Codec842].maxInput
	codecs[Codec842].maxInput = failureStandIn842
	defer func() { codecs[Codec842].maxInput = saved }()

	in := newFailureInputs(t)
	var got strings.Builder
	for _, mc := range []struct {
		name string
		cfg  DeviceConfig
	}{{"p9", P9Device()}, {"z15", Z15Device()}} {
		sync := mc.cfg.Engine.Pipeline.SyncSetupCycles > 0
		entries := make([]BatchEntry, len(failureCases))
		batch := NewDevice(mc.cfg).OpenContext(1)
		for i, fc := range failureCases {
			crb := fc.crb(in)
			ctx := NewDevice(mc.cfg).OpenContext(1)
			mapFailureOperands(t, ctx, &crb)
			csb, _, err := ctx.Submit(&crb)
			if err != nil || csb.CC != fc.want {
				t.Errorf("%s/%s: err=%v CC=%s %q, want %s", mc.name, fc.name, err, csb.CC, csb.Detail, fc.want)
			}
			fmt.Fprintf(&got, "%s/alone/%s %s\n", mc.name, fc.name, failureRow(csb))
			if sync {
				crb := fc.crb(in)
				ctx := NewDevice(mc.cfg).OpenContext(1)
				mapFailureOperands(t, ctx, &crb)
				csb, _, err := ctx.SyncCall(&crb)
				if err != nil || csb.CC != fc.want {
					t.Errorf("%s/sync/%s: err=%v CC=%s %q, want %s", mc.name, fc.name, err, csb.CC, csb.Detail, fc.want)
				}
				fmt.Fprintf(&got, "%s/sync/%s %s\n", mc.name, fc.name, failureRow(csb))
			}
			entries[i].CRB = fc.crb(in)
			mapFailureOperands(t, batch, &entries[i].CRB)
		}
		if err := batch.SubmitBatch(entries); err != nil {
			t.Fatalf("%s batch: %v", mc.name, err)
		}
		for i, fc := range failureCases {
			e := &entries[i]
			if e.Err != nil || e.CSB.CC != fc.want {
				t.Errorf("%s/batch/%s: err=%v CC=%s %q, want %s", mc.name, fc.name, e.Err, e.CSB.CC, e.CSB.Detail, fc.want)
			}
			fmt.Fprintf(&got, "%s/batch/%s %s\n", mc.name, fc.name, failureRow(&e.CSB))
		}

		// A codec the engine does not advertise is refused at parse.
		cfg := mc.cfg
		cfg.Engine.Codecs = Codecs(CodecDeflate)
		ctx := NewDevice(cfg).OpenContext(1)
		crb := CRB{Func: FCLZ4Compress, Input: in.plain}
		mapFailureOperands(t, ctx, &crb)
		csb, _, err := ctx.Submit(&crb)
		if err != nil || csb.CC != CCInvalidCRB {
			t.Errorf("%s/unserved-codec: err=%v CC=%s %q", mc.name, err, csb.CC, csb.Detail)
		}
		fmt.Fprintf(&got, "%s/alone/lz4-compress/unserved-codec %s\n", mc.name, failureRow(csb))
	}
	if t.Failed() {
		return
	}
	if *updateGolden {
		if err := os.WriteFile(failureGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(failureGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := strings.Split(string(buf), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(want) || line != want[i] {
			w := "(none)"
			if i < len(want) {
				w = want[i]
			}
			t.Errorf("model moved:\n got  %s\n want %s", line, w)
		}
	}
	if n := strings.Count(got.String(), "\n"); n != strings.Count(string(buf), "\n") {
		t.Errorf("%d rows, the pin has %d", n, strings.Count(string(buf), "\n"))
	}
}
