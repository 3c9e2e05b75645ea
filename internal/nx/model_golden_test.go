package nx

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/lz77"
	"nxzip/internal/testutil"
)

// The model clock, frozen. A host-side optimisation of the LZ stage (or of
// anything else under the engine) must leave every compressed byte, every
// device cycle and every LZ-stage counter where it was; this file pins them
// for the corpus kinds x {64 KiB, 1 MiB} x {P9, z15} x {FHT, DHT} x
// {no history, 32 KiB history}. Each history-free stream is then decoded
// raw, gzip-framed (whole and first-member-only with a second member
// behind it) and zlib-framed, pinning what the decompressor reports: SPBC,
// TPBC, both checksums and the cycles, which depend only on the bytes
// consumed and produced. After those, per device and corpus kind at 64 KiB:
// canned-DHT compression, the lz4 and 842 block codecs and transcode
// (codecGoldenEntries), and requests through mapped operands whose target
// budget is 4 and 256 times what they write (budgetGoldenEntries): the
// budget is a limit, and the cycles are those of the pages written. Last,
// per device, one batch envelope (batchGoldenEntries): the chained costs;
// and the large and periodic sources of largeGoldenEntries. Regenerate with
//
//	go test ./internal/nx -run TestModelGolden -update
//
// only in a change that means to move the model.

var updateGolden = flag.Bool("update", false, "rewrite testdata/model_golden.json from the current code")

const (
	goldenPath    = "testdata/model_golden.json"
	goldenHistory = 32 << 10
	goldenSeed    = 12
)

type goldenEntry struct {
	Name         string       `json:"name"`
	SHA256       string       `json:"sha256"`
	DeviceCycles int64        `json:"device_cycles"`
	LZ           lz77.HWStats `json:"lz"`
	// Decompress rows only; SHA256 is then over the plaintext.
	SPBC    int    `json:"spbc,omitempty"`
	TPBC    int    `json:"tpbc,omitempty"`
	CRC32   uint32 `json:"crc32,omitempty"`
	Adler32 uint32 `json:"adler32,omitempty"`
}

func modelGoldenEntries(t *testing.T) []goldenEntry {
	t.Helper()
	var out, budgeted, batched, large []goldenEntry
	for _, mc := range []struct {
		name string
		cfg  DeviceConfig
	}{{"p9", P9Device()}, {"z15", Z15Device()}} {
		ctx := NewDevice(mc.cfg).OpenContext(100)
		for _, size := range []int{64 << 10, 1 << 20} {
			for _, kind := range corpus.Kinds() {
				data := corpus.Generate(kind, goldenHistory+size, goldenSeed)
				for _, fc := range []FuncCode{FCCompressFHT, FCCompressDHT} {
					for _, hist := range []bool{false, true} {
						crb := &CRB{Func: fc, Wrap: WrapRaw, Input: data[goldenHistory:]}
						if hist {
							crb.History = data[:goldenHistory]
						}
						name := fmt.Sprintf("%s/%s/%d/%s/hist=%v", mc.name, kind, size, fc, hist)
						csb, rep, err := ctx.Submit(crb)
						if err != nil || csb.CC != CCSuccess {
							t.Fatalf("%s: err=%v CC=%s %s", name, err, csb.CC, csb.Detail)
						}
						sum := sha256.Sum256(csb.Output)
						out = append(out, goldenEntry{
							Name:         name,
							SHA256:       hex.EncodeToString(sum[:]),
							DeviceCycles: rep.TotalCycles,
							LZ:           csb.LZ,
						})
						if !hist {
							out = append(out, decompressGoldenEntries(t, ctx, name, csb.Output, crb.Input)...)
						}
					}
				}
			}
		}
		out = append(out, codecGoldenEntries(t, ctx, mc.name)...)
		budgeted = append(budgeted, budgetGoldenEntries(t, ctx, mc.name)...)
		batched = append(batched, batchGoldenEntries(t, ctx, mc.name)...)
		large = append(large, largeGoldenEntries(t, ctx, mc.name)...)
	}
	return append(append(append(out, budgeted...), batched...), large...)
}

// largeGoldenEntries are the sources around and past the size at which a
// compress may tokenize its source from two ends at once: text a byte short
// of 512 KiB, at 512 KiB and at 4 MiB, and 1 MiB of zeros and of two short
// periods and one just past MaxMatch, whose parses need not meet; each under
// both table modes, without and behind 32 KiB of history.
func largeGoldenEntries(t *testing.T, ctx *Context, dev string) []goldenEntry {
	t.Helper()
	var out []goldenEntry
	for _, in := range []struct {
		name string
		data []byte // goldenHistory bytes of history, then the source
	}{
		{"text/524287", corpus.Generate(corpus.Text, goldenHistory+512<<10-1, goldenSeed)},
		{"text/524288", corpus.Generate(corpus.Text, goldenHistory+512<<10, goldenSeed)},
		{"text/4194304", corpus.Generate(corpus.Text, goldenHistory+4<<20, goldenSeed)},
		{"zeros/1048576", corpus.Generate(corpus.Zeros, goldenHistory+1<<20, goldenSeed)},
		{"period16/1048576", testutil.Periodic(16, goldenHistory+1<<20)},
		{"period258/1048576", testutil.Periodic(258, goldenHistory+1<<20)},
	} {
		for _, fc := range []FuncCode{FCCompressFHT, FCCompressDHT} {
			for _, hist := range []bool{false, true} {
				crb := &CRB{Func: fc, Wrap: WrapRaw, Input: in.data[goldenHistory:]}
				if hist {
					crb.History = in.data[:goldenHistory]
				}
				name := fmt.Sprintf("%s/large/%s/%s/hist=%v", dev, in.name, fc, hist)
				csb, rep, err := ctx.Submit(crb)
				if err != nil || csb.CC != CCSuccess {
					t.Fatalf("%s: err=%v CC=%s %s", name, err, csb.CC, csb.Detail)
				}
				sum := sha256.Sum256(csb.Output)
				out = append(out, goldenEntry{
					Name:         name,
					SHA256:       hex.EncodeToString(sum[:]),
					DeviceCycles: rep.TotalCycles,
					LZ:           csb.LZ,
				})
			}
		}
	}
	return out
}

// goldenCannedDHT is a caller-supplied table as the NX library ships them:
// built once from a text sample, every symbol floored at one so it covers
// any input.
func goldenCannedDHT(t *testing.T) *deflate.DHT {
	t.Helper()
	tokens, _ := lz77.NewHWMatcher(lz77.P9HWParams()).Tokenize(nil, corpus.Generate(corpus.Text, 64<<10, goldenSeed+1))
	lf, df := deflate.CountFrequencies(tokens)
	for i := range lf {
		lf[i]++
	}
	for i := range df {
		df[i]++
	}
	dht, err := deflate.BuildDHT(lf, df)
	if err != nil {
		t.Fatal(err)
	}
	return dht
}

// codecGoldenEntries pins the function codes the rows above do not reach:
// canned-DHT compression (gzip- and zlib-framed, so the compress side's
// CRC-32 and Adler-32 are in the file too), the lz4 and 842 block codecs in
// both directions, and transcode in both directions.
func codecGoldenEntries(t *testing.T, ctx *Context, dev string) []goldenEntry {
	t.Helper()
	canned := goldenCannedDHT(t)
	var out []goldenEntry
	run := func(name string, crb *CRB) *CSB {
		csb, rep, err := ctx.Submit(crb)
		if err != nil || csb.CC != CCSuccess {
			t.Fatalf("%s: err=%v CC=%s %s", name, err, csb.CC, csb.Detail)
		}
		sum := sha256.Sum256(csb.Output)
		out = append(out, goldenEntry{
			Name:         name,
			SHA256:       hex.EncodeToString(sum[:]),
			DeviceCycles: rep.TotalCycles,
			LZ:           csb.LZ,
			SPBC:         csb.SPBC,
			TPBC:         csb.TPBC,
			CRC32:        csb.CRC32,
			Adler32:      csb.Adler32,
		})
		return csb
	}
	for _, kind := range corpus.Kinds() {
		plain := corpus.Generate(kind, 64<<10, goldenSeed)
		name := fmt.Sprintf("%s/%s/%d/", dev, kind, len(plain))
		gz := run(name+"compress-canned-dht/gzip", &CRB{Func: FCCompressCannedDHT, Wrap: WrapGzip, Input: plain, DHT: canned}).Output
		run(name+"compress-canned-dht/zlib/hist=true", &CRB{Func: FCCompressCannedDHT, Wrap: WrapZlib, Input: plain[goldenHistory:], History: plain[:goldenHistory], DHT: canned})
		for _, bc := range []struct {
			tag           string
			codec         Codec
			compress, dec FuncCode
		}{{"lz4", CodecLZ4, FCLZ4Compress, FCLZ4Decompress}, {"842", Codec842, FC842Compress, FC842Decompress}} {
			blk := run(name+bc.tag+"-compress", &CRB{Func: bc.compress, Input: plain}).Output
			run(name+bc.tag+"-decompress", &CRB{Func: bc.dec, Input: blk, TargetCap: len(plain)})
			run(name+"transcode-gzip-to-"+bc.tag, &CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: CodecDeflate, TargetCodec: bc.codec, Input: gz, TargetCap: 2 * len(plain)})
			run(name+"transcode-"+bc.tag+"-to-zlib", &CRB{Func: FCTranscode, Wrap: WrapZlib, SourceCodec: bc.codec, TargetCodec: CodecDeflate, Input: blk, TargetCap: 2 * len(plain)})
		}
	}
	return out
}

// budgetGoldenEntries are the rows with translation in them: both operands
// mapped, the target 4 and 256 times the output (the second is the root
// library's bomb budget for a decode), a compression and its decompression
// per corpus kind.
func budgetGoldenEntries(t *testing.T, ctx *Context, dev string) []goldenEntry {
	t.Helper()
	var out []goldenEntry
	run := func(name string, crb CRB, outLen, times int) []byte {
		var err error
		if crb.SourceVA, err = ctx.MapBuffer(len(crb.Input), true); err != nil {
			t.Fatal(err)
		}
		crb.TargetCap = times * outLen
		if crb.TargetVA, err = ctx.MapBuffer(crb.TargetCap, true); err != nil {
			t.Fatal(err)
		}
		csb, rep, err := ctx.Submit(&crb)
		if err != nil || csb.CC != CCSuccess || csb.TPBC != outLen {
			t.Fatalf("%s: err=%v CC=%s %s, %d bytes", name, err, csb.CC, csb.Detail, csb.TPBC)
		}
		sum := sha256.Sum256(csb.Output)
		out = append(out, goldenEntry{
			Name:         name,
			SHA256:       hex.EncodeToString(sum[:]),
			DeviceCycles: rep.TotalCycles,
			LZ:           csb.LZ,
			SPBC:         csb.SPBC,
			TPBC:         csb.TPBC,
			CRC32:        csb.CRC32,
			Adler32:      csb.Adler32,
		})
		return csb.Output
	}
	for _, kind := range corpus.Kinds() {
		plain := corpus.Generate(kind, 64<<10, goldenSeed)
		probe, _, err := ctx.Submit(&CRB{Func: FCCompressDHT, Wrap: WrapGzip, Input: plain})
		if err != nil || probe.CC != CCSuccess {
			t.Fatalf("%s/%s: err=%v CC=%s", dev, kind, err, probe.CC)
		}
		for _, times := range []int{4, 256} {
			name := fmt.Sprintf("%s/%s/%d/budget-x%d/", dev, kind, len(plain), times)
			gz := run(name+"compress-dht/gzip", CRB{Func: FCCompressDHT, Wrap: WrapGzip, Input: plain}, probe.TPBC, times)
			run(name+"decompress-gzip", CRB{Func: FCDecompress, Wrap: WrapGzip, Input: gz}, len(plain), times)
		}
	}
	return out
}

// batchGoldenEntries are one envelope of three requests per device, so the
// chained costs are in the file: the first entry pays the full setup and
// the rest the chain's, and every entry but the last stores its CSB at the
// chained completion's cost.
func batchGoldenEntries(t *testing.T, ctx *Context, dev string) []goldenEntry {
	t.Helper()
	var entries []BatchEntry
	for _, kind := range []corpus.Kind{corpus.JSONLogs, corpus.Text, corpus.Binary} {
		entries = append(entries, BatchEntry{CRB: CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: corpus.Generate(kind, 4<<10, goldenSeed)}})
	}
	if err := ctx.SubmitBatch(entries); err != nil {
		t.Fatalf("%s batch: %v", dev, err)
	}
	var out []goldenEntry
	for i, e := range entries {
		name := fmt.Sprintf("%s/batch/%d-of-%d/%s", dev, i+1, len(entries), e.CRB.Func)
		if e.Err != nil || e.CSB.CC != CCSuccess {
			t.Fatalf("%s: err=%v CC=%s %s", name, e.Err, e.CSB.CC, e.CSB.Detail)
		}
		sum := sha256.Sum256(e.CSB.Output)
		out = append(out, goldenEntry{
			Name:         name,
			SHA256:       hex.EncodeToString(sum[:]),
			DeviceCycles: e.Rep.TotalCycles,
			LZ:           e.CSB.LZ,
			SPBC:         e.CSB.SPBC,
			TPBC:         e.CSB.TPBC,
			CRC32:        e.CSB.CRC32,
			Adler32:      e.CSB.Adler32,
		})
	}
	return out
}

// decompressGoldenEntries decodes one raw stream under every framing the
// engine unwraps.
func decompressGoldenEntries(t *testing.T, ctx *Context, name string, raw, plain []byte) []goldenEntry {
	t.Helper()
	gz := deflate.GzipWrap(raw, plain)
	var out []goldenEntry
	for _, dc := range []struct {
		tag string
		crb CRB
	}{
		{"raw", CRB{Wrap: WrapRaw, Input: raw}},
		{"gzip", CRB{Wrap: WrapGzip, Input: gz}},
		{"gzip-first", CRB{Wrap: WrapGzip, Input: append(bytes.Clone(gz), gz...), FirstMemberOnly: true}},
		{"zlib", CRB{Wrap: WrapZlib, Input: deflate.ZlibWrap(raw, plain)}},
	} {
		crb := dc.crb
		crb.Func = FCDecompress
		crb.TargetCap = len(plain)
		name := name + "/decompress-" + dc.tag
		csb, rep, err := ctx.Submit(&crb)
		if err != nil || csb.CC != CCSuccess {
			t.Fatalf("%s: err=%v CC=%s %s", name, err, csb.CC, csb.Detail)
		}
		sum := sha256.Sum256(csb.Output)
		out = append(out, goldenEntry{
			Name:         name,
			SHA256:       hex.EncodeToString(sum[:]),
			DeviceCycles: rep.TotalCycles,
			SPBC:         csb.SPBC,
			TPBC:         csb.TPBC,
			CRC32:        csb.CRC32,
			Adler32:      csb.Adler32,
		})
	}
	return out
}

func TestModelGolden(t *testing.T) {
	got := modelGoldenEntries(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), goldenPath)
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d entries, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("model moved:\n got  %+v\n want %+v", got[i], want[i])
		}
	}
}
