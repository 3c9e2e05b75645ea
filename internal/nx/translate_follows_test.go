package nx

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/pipeline"
	"nxzip/internal/testutil"
)

// What a request's translation charge follows. Every function code runs on
// both devices over four sizes, under five target budgets — one byte short
// of the output, exactly the output, a page more, four times it, 256 times
// the input (the root library's bomb budget) — named once by a flat
// TargetVA and once by a three-extent TargetDDE, each row on a device of
// its own so every page is a compulsory miss. Within one (function code,
// device, size) group the budget may move nothing but Translate, Total and
// the ERAT lookups behind them: bytes, CC, SPBC/TPBC, checksums and every
// other stage are the group's, printed once. The rows are pinned in
// testdata/translate_follows_output.txt (regenerate with -update, only in
// a change that means to move the model).

const xlateGoldenPath = "testdata/translate_follows_output.txt"

// xlateOps lists the function codes. input derives the request's source
// from the plaintext (nil: the plaintext itself), once per group; crb
// builds a fresh request around it for every row, resume state included.
var xlateOps = []struct {
	name  string
	input func(t *testing.T, probe *Context, plain []byte) []byte
	crb   func() CRB
}{
	{"compress-fht", nil, func() CRB { return CRB{Func: FCCompressFHT, Wrap: WrapGzip} }},
	{"compress-dht", nil, func() CRB { return CRB{Func: FCCompressDHT, Wrap: WrapZlib} }},
	{"decompress-gzip", xlateDeflated(WrapGzip), func() CRB { return CRB{Func: FCDecompress, Wrap: WrapGzip} }},
	{"decompress-zlib", xlateDeflated(WrapZlib), func() CRB { return CRB{Func: FCDecompress, Wrap: WrapZlib} }},
	{"decompress-raw", xlateDeflated(WrapRaw), func() CRB { return CRB{Func: FCDecompress, Wrap: WrapRaw} }},
	{"resume", xlateDeflated(WrapRaw), func() CRB {
		return CRB{Func: FCDecompress, Wrap: WrapRaw, DecompState: NewDecompState(0)}
	}},
	{"lz4-compress", nil, func() CRB { return CRB{Func: FCLZ4Compress} }},
	{"lz4-decompress", xlateBlock(FCLZ4Compress), func() CRB { return CRB{Func: FCLZ4Decompress} }},
	{"842-compress", nil, func() CRB { return CRB{Func: FC842Compress} }},
	{"842-decompress", xlateBlock(FC842Compress), func() CRB { return CRB{Func: FC842Decompress} }},
	{"transcode-gzip-to-lz4", xlateDeflated(WrapGzip), func() CRB {
		return CRB{Func: FCTranscode, Wrap: WrapGzip, SourceCodec: CodecDeflate, TargetCodec: CodecLZ4}
	}},
	{"move", nil, func() CRB { return CRB{Func: FCMove} }},
}

func xlateSubmit(t *testing.T, ctx *Context, crb *CRB) *CSB {
	t.Helper()
	csb, _, err := ctx.Submit(crb)
	if err != nil {
		t.Fatalf("%s: %v", crb.Func, err)
	}
	return csb
}

func xlateDeflated(wrap Wrap) func(*testing.T, *Context, []byte) []byte {
	return func(t *testing.T, probe *Context, plain []byte) []byte {
		raw := xlateSubmit(t, probe, &CRB{Func: FCCompressDHT, Wrap: WrapRaw, Input: plain}).Output
		switch wrap {
		case WrapGzip:
			return deflate.GzipWrap(raw, plain)
		case WrapZlib:
			return deflate.ZlibWrap(raw, plain)
		}
		return raw
	}
}

func xlateBlock(fc FuncCode) func(*testing.T, *Context, []byte) []byte {
	return func(t *testing.T, probe *Context, plain []byte) []byte {
		return xlateSubmit(t, probe, &CRB{Func: fc, Input: plain}).Output
	}
}

// xlateRow is one submission on a fresh device.
type xlateRow struct {
	csb *CSB
	// srcPages is the source's page count; targetPages reports how many
	// pages hold the first n bytes of the target operand.
	srcPages    int64
	targetPages func(n int) int64
}

func runXlateRow(t *testing.T, cfg DeviceConfig, crb CRB, input []byte, budget int, scattered bool) xlateRow {
	t.Helper()
	dev := NewDevice(cfg)
	ctx := dev.OpenContext(1)
	ps := uint64(dev.MMU().Config().PageSize)
	pages := func(va uint64, n int) int64 {
		if n <= 0 {
			return 0
		}
		return int64((va+uint64(n)-1)/ps - va/ps + 1)
	}
	mapped := func(n int) uint64 {
		va, err := ctx.MapBuffer(n, true)
		if err != nil {
			t.Fatal(err)
		}
		return va
	}
	crb.Input, crb.SourceVA, crb.TargetCap = input, mapped(len(input)), budget
	row := xlateRow{srcPages: pages(crb.SourceVA, len(input))}
	if scattered {
		third := budget / 3
		extents := []DDE{
			DirectDDE(mapped(third), third),
			DirectDDE(mapped(third), third),
			DirectDDE(mapped(budget-2*third), budget-2*third),
		}
		dde := IndirectDDE(extents...)
		crb.TargetDDE = &dde
		row.targetPages = func(n int) (total int64) {
			for _, e := range extents {
				take := e.Len
				if take > n {
					take = n
				}
				total += pages(e.VA, take)
				n -= take
			}
			return total
		}
	} else {
		crb.TargetVA = mapped(budget)
		row.targetPages = func(n int) int64 { return pages(crb.TargetVA, n) }
	}
	row.csb = xlateSubmit(t, ctx, &crb)
	return row
}

// xlateFixed renders what a budget may not move.
func xlateFixed(csb *CSB) string {
	sum := sha256.Sum256(csb.Output)
	b := csb.Cycles
	return fmt.Sprintf("%s spbc=%d tpbc=%d sha=%x crc=%08x adler=%08x setup=%d dmain=%d lz=%d dhtgen=%d encode=%d decode=%d dmaout=%d complete=%d",
		csb.CC, csb.SPBC, csb.TPBC, sum[:6], csb.CRC32, csb.Adler32,
		b.Setup, b.DMAIn, b.LZ, b.DHTGen, b.Encode, b.Decode, b.DMAOut, b.Complete)
}

// xlateMoving renders what it may.
func xlateMoving(csb *CSB) string {
	return fmt.Sprintf("translate=%d total=%d erat=%d", csb.Cycles.Translate, csb.Cycles.Total, csb.ERATHits+csb.ERATMisses)
}

func TestTranslateFollowsOutput(t *testing.T) {
	sizes := []int{256, 4 << 10, 64 << 10, 1 << 20}
	if testing.Short() || testutil.RaceEnabled {
		sizes = sizes[:3]
	}
	var got strings.Builder
	for _, mc := range []struct {
		name string
		cfg  DeviceConfig
	}{{"p9", P9Device()}, {"z15", Z15Device()}} {
		probe := NewDevice(mc.cfg).OpenContext(1)
		walk := mc.cfg.MMU.WalkCycles
		for _, op := range xlateOps {
			for _, size := range sizes {
				plain := corpus.Generate(corpus.Text, size, goldenSeed)
				input := plain
				if op.input != nil {
					input = op.input(t, probe, plain)
				}
				outLen := len(runXlateRow(t, mc.cfg, op.crb(), input, 4*size+1024, false).csb.Output)
				group := fmt.Sprintf("%s/%s/%d", mc.name, op.name, size)
				var fixed string
				for _, bc := range []struct {
					name   string
					budget int
				}{
					{"exact", outLen},
					{"page", outLen + mc.cfg.MMU.PageSize},
					{"x4", 4 * outLen},
					{"x256in", 256 * len(input)},
					{"short", outLen - 1},
				} {
					for _, scattered := range []bool{false, true} {
						name := bc.name + "/flat"
						if scattered {
							name = bc.name + "/dde"
						}
						row := runXlateRow(t, mc.cfg, op.crb(), input, bc.budget, scattered)
						csb := row.csb
						// The law: one lookup for every source page and for
						// every target page the operation reached — what it
						// wrote, or the whole budget when that ran out —
						// and for no page it did not.
						reached := max(1, csb.TPBC)
						if bc.name == "short" {
							reached = bc.budget
						}
						lookups := row.srcPages + row.targetPages(reached)
						if n := csb.ERATHits + csb.ERATMisses; n != lookups || csb.Cycles.Translate != lookups*walk {
							t.Errorf("%s %s: %d ERAT lookups and %d translate cycles, want %d lookups of %d cycles",
								group, name, n, csb.Cycles.Translate, lookups, walk)
						}
						if want := wantTotal(csb.Cycles); csb.Cycles.Total != want && op.name != "transcode-gzip-to-lz4" {
							t.Errorf("%s %s: total %d, stages say %d", group, name, csb.Cycles.Total, want)
						}
						if bc.name == "short" {
							if csb.CC != CCTargetSpace || csb.Output != nil || csb.SPBC != 0 || csb.TPBC != 0 {
								t.Errorf("%s %s: CC=%s spbc=%d tpbc=%d, %d bytes out", group, name, csb.CC, csb.SPBC, csb.TPBC, len(csb.Output))
							}
							fmt.Fprintf(&got, "  %s %s %s\n", name, xlateFixed(csb), xlateMoving(csb))
							continue
						}
						if fixed == "" {
							fixed = xlateFixed(csb)
							fmt.Fprintf(&got, "%s %s\n", group, fixed)
						}
						if f := xlateFixed(csb); csb.CC != CCSuccess || f != fixed {
							t.Errorf("%s %s: the budget moved more than the translation:\n got  %s\n want %s", group, name, f, fixed)
						}
						fmt.Fprintf(&got, "  %s %s\n", name, xlateMoving(csb))
					}
				}
			}
		}
	}
	if t.Failed() {
		return
	}
	if *updateGolden {
		if len(sizes) != 4 {
			t.Fatal("-update needs the full size list: run without -short and without -race")
		}
		if err := os.WriteFile(xlateGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(xlateGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := xlateGroups(string(buf))
	for group, lines := range xlateGroups(got.String()) {
		if lines != want[group] {
			t.Errorf("model moved:\n got  %s\n want %s", lines, want[group])
		}
	}
}

// wantTotal is the pipeline's overlap rule read back from a breakdown:
// setup, table generation and completion are serial, the rest overlap.
func wantTotal(b pipeline.Breakdown) int64 {
	stage := b.Translate
	for _, s := range []int64{b.DMAIn, b.LZ, b.Encode, b.Decode, b.DMAOut} {
		if s > stage {
			stage = s
		}
	}
	return b.Setup + b.DHTGen + stage + b.Complete
}

// xlateGroups splits the golden text into its groups, keyed by header
// name, so a run over fewer sizes compares what it ran.
func xlateGroups(text string) map[string]string {
	groups := make(map[string]string)
	var key string
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, " ") {
			key, _, _ = strings.Cut(line, " ")
		}
		groups[key] += line
	}
	return groups
}
