package experiments

import (
	"fmt"

	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/huffman"
	"nxzip/internal/lz77"
	"nxzip/internal/nx"
	"nxzip/internal/specdec"
	"nxzip/internal/stats"
)

// ablationInput is the shared workload for design-choice sweeps.
func ablationInput() []byte {
	return corpus.Generate(corpus.Text, 1<<20, Seed)
}

// hwRatioAndCycles compresses src through the hardware matcher + DHT
// block writer with the given LZ parameters, returning (ratio,
// cycles/KB).
func hwRatioAndCycles(p lz77.HWParams, src []byte) (float64, float64) {
	m := lz77.NewHWMatcher(p)
	tokens, st := m.Tokenize(nil, src)
	out, err := deflate.EncodeTokens(tokens, src, deflate.ModeDynamic, nil)
	if err != nil {
		panic(err)
	}
	return ratioOf(len(src), len(out)), float64(st.Cycles) / (float64(len(src)) / 1024)
}

// A1Banks sweeps hash-table bank count: fewer banks mean more same-beat
// conflicts and replay cycles, at identical ratio.
func A1Banks() *Table {
	t := &Table{
		ID:     "A1",
		Title:  "ablation: hash-table banks (conflict replays vs area)",
		Header: []string{"banks", "ratio", "cycles/KB", "conflicts"},
	}
	src := ablationInput()
	for _, banks := range []int{2, 4, 8, 16, 32} {
		p := lz77.P9HWParams()
		p.Banks = banks
		m := lz77.NewHWMatcher(p)
		tokens, st := m.Tokenize(nil, src)
		out, err := deflate.EncodeTokens(tokens, src, deflate.ModeDynamic, nil)
		if err != nil {
			panic(err)
		}
		t.AddRow(fmt.Sprintf("%d", banks), f2(ratioOf(len(src), len(out))),
			f1(float64(st.Cycles)/(float64(len(src))/1024)),
			fmt.Sprintf("%d", st.BankConflicts))
	}
	return t
}

// A2Ways sweeps set associativity: more candidate comparisons per probe
// buy ratio with parallel comparators, not cycles.
func A2Ways() *Table {
	t := &Table{
		ID:     "A2",
		Title:  "ablation: candidate set size (ways)",
		Header: []string{"ways", "ratio", "cycles/KB"},
	}
	src := ablationInput()
	for _, ways := range []int{1, 2, 4, 8, 16} {
		p := lz77.P9HWParams()
		p.Ways = ways
		r, c := hwRatioAndCycles(p, src)
		t.AddRow(fmt.Sprintf("%d", ways), f2(r), f1(c))
	}
	return t
}

// A3Lazy compares the z15 one-deep lazy refinement against the P9 greedy
// policy at equal width.
func A3Lazy() *Table {
	t := &Table{
		ID:     "A3",
		Title:  "ablation: greedy vs one-deep lazy matching",
		Header: []string{"policy", "ratio", "cycles/KB"},
	}
	src := ablationInput()
	for _, lazy := range []bool{false, true} {
		p := lz77.P9HWParams()
		p.Lazy = lazy
		r, c := hwRatioAndCycles(p, src)
		name := "greedy (P9)"
		if lazy {
			name = "lazy-1 (z15)"
		}
		t.AddRow(name, f2(r), f1(c))
	}
	return t
}

// A4Window sweeps the history window below DEFLATE's 32 KiB maximum.
func A4Window() *Table {
	t := &Table{
		ID:     "A4",
		Title:  "ablation: history window size",
		Header: []string{"window", "ratio"},
	}
	src := ablationInput()
	for _, win := range []int{1 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10} {
		p := lz77.P9HWParams()
		p.MaxDist = win
		r, _ := hwRatioAndCycles(p, src)
		t.AddRow(fmt.Sprintf("%d KiB", win>>10), f2(r))
	}
	return t
}

// A5Width sweeps the ingest width (the P9->z15 scaling axis).
func A5Width() *Table {
	t := &Table{
		ID:     "A5",
		Title:  "ablation: LZ ingest width (bytes/cycle)",
		Header: []string{"width", "ratio", "cycles/KB", "rel rate"},
	}
	src := ablationInput()
	var base float64
	for _, w := range []int{4, 8, 16, 32} {
		p := lz77.P9HWParams()
		p.InputWidth = w
		r, c := hwRatioAndCycles(p, src)
		if base == 0 {
			base = c
		}
		t.AddRow(fmt.Sprintf("%dB", w), f2(r), f1(c), f2(base/c)+"x")
	}
	t.Note("rate scales with width because beats = ceil(n/width); conflicts dampen it slightly")
	return t
}

// Ablations runs every design-choice sweep.
func Ablations() []*Table {
	return []*Table{A1Banks(), A2Ways(), A3Lazy(), A4Window(), A5Width(), A6SpecDecode(), A7SampleSize(), A8ERATSize(), A9TableConstruction(), A10ExpansionBound(), A11ParseOptimality()}
}

// A6SpecDecode measures Huffman self-synchronization on real blocks and
// derives the lane-count scaling of a speculative parallel decoder — the
// microarchitectural basis for the decompressor's multi-byte-per-cycle
// output rate.
func A6SpecDecode() *Table {
	t := &Table{
		ID:     "A6",
		Title:  "ablation: speculative parallel decode (self-synchronization)",
		Header: []string{"corpus", "sync rate", "mean sync", "2 lanes", "4 lanes", "8 lanes"},
	}
	m := lz77.NewHWMatcher(lz77.P9HWParams())
	for _, k := range []corpus.Kind{corpus.Text, corpus.JSONLogs, corpus.DNA, corpus.Binary} {
		src := corpus.Generate(k, 64<<10, Seed)
		toks, _ := m.Tokenize(nil, src)
		stream, err := deflate.EncodeTokens(toks, src, deflate.ModeDynamic, nil)
		if err != nil {
			panic(err)
		}
		an, err := specdec.Analyze(stream, 0)
		if err != nil {
			panic(err)
		}
		const segment = 4096 // bits per lane segment
		t.AddRow(k.String(),
			fmt.Sprintf("%.1f%%", an.SyncRate*100),
			fmt.Sprintf("%.0f bits", an.MeanSyncBits),
			f2(an.Speedup(2, segment))+"x",
			f2(an.Speedup(4, segment))+"x",
			f2(an.Speedup(8, segment))+"x")
	}
	t.Note("4 KiB-bit segments; a synced lane loses only its resynchronization prefix")
	t.Note("this scaling justifies the pipeline model's multi-byte/cycle decode rates")
	return t
}

// A7SampleSize sweeps the single-pass DHT sample window: the engine
// freezes the table after sampling the first N KiB, so a small sample
// risks mismatching the rest of the request. This is the central
// compression-side approximation of the design.
func A7SampleSize() *Table {
	t := &Table{
		ID:     "A7",
		Title:  "ablation: single-pass DHT sample size",
		Header: []string{"sample", "text ratio", "shifting-data ratio"},
	}
	// "Shifting" data changes symbol statistics mid-request: first half
	// text, second half DNA — the adversarial case for sampling.
	text := corpus.Generate(corpus.Text, 1<<20, Seed)
	shifting := append(append([]byte{}, corpus.Generate(corpus.Text, 512<<10, Seed)...),
		corpus.Generate(corpus.DNA, 512<<10, Seed)...)
	for _, sample := range []int{4 << 10, 16 << 10, 32 << 10, 128 << 10, 1 << 20} {
		cfg := nx.P9Device()
		cfg.Engine.Pipeline.DHTSampleBytes = sample
		ctx := nx.NewDevice(cfg).OpenContext(1)
		row := []string{stats.Bytes(int64(sample))}
		for _, src := range [][]byte{text, shifting} {
			out, _, err := ctx.Compress(src, nx.FCCompressDHT, nx.WrapRaw, true)
			if err != nil {
				panic(err)
			}
			row = append(row, f2(ratioOf(len(src), len(out))))
		}
		t.AddRow(row...)
	}
	t.Note("stationary data needs only a small sample; shifting statistics reward sampling more")
	return t
}

// A8ERATSize sweeps the translation cache under request reuse: repeated
// requests over the same buffers hit a big-enough ERAT (only the first
// pass walks the tables) but thrash a small one. A single streaming pass
// is all compulsory misses, so the cache only pays off across requests —
// the common pattern for a service compressing into reused buffers.
func A8ERATSize() *Table {
	t := &Table{
		ID:     "A8",
		Title:  "ablation: ERAT entries vs translation cycles (32 requests, reused buffers)",
		Header: []string{"erat entries", "total translate", "hit rate"},
	}
	const size = 256 << 10 // 4 source pages + the 2 target pages the output reaches, of a 9-page budget
	src := corpus.Generate(corpus.Text, size, Seed)
	for _, entries := range []int{2, 8, 32, 128} {
		cfg := nx.P9Device()
		cfg.MMU.ERATEntries = entries
		dev := nx.NewDevice(cfg)
		ctx := dev.OpenContext(1)
		srcVA, err := ctx.MapBuffer(size, true)
		if err != nil {
			panic(err)
		}
		dstVA, err := ctx.MapBuffer(2*size+1024, true)
		if err != nil {
			panic(err)
		}
		var total int64
		for i := 0; i < 32; i++ {
			csb, rep, err := ctx.Submit(&nx.CRB{
				Func: nx.FCCompressFHT, Wrap: nx.WrapRaw, Input: src,
				SourceVA: srcVA, TargetVA: dstVA, TargetCap: 2*size + 1024,
			})
			if err != nil || csb.CC != nx.CCSuccess {
				panic(fmt.Sprintf("A8: %v %v", err, csb.CC))
			}
			total += rep.Breakdown.Translate
		}
		st := dev.MMU().Stats()
		hitRate := float64(st.Hits) / float64(st.Hits+st.Misses) * 100
		t.AddRow(fmt.Sprintf("%d", entries),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%.0f%%", hitRate))
	}
	t.Note("6 pages in flight (4 read, 2 written; the other 7 of the target budget are never touched): an ERAT below the working set walks every page of every request")
	return t
}

// A9TableConstruction compares the hardware-friendly table constructor
// (unconstrained Huffman + clamp-and-repair, what a cheap DHT generator
// implements) against provably optimal package-merge, on real per-request
// frequencies. The punchline the hardware design relies on: for DEFLATE's
// 15-bit limit and real data, the heuristic's loss is negligible.
func A9TableConstruction() *Table {
	t := &Table{
		ID:     "A9",
		Title:  "ablation: DHT construction — repair heuristic vs package-merge",
		Header: []string{"corpus", "heuristic bits", "optimal bits", "excess"},
	}
	m := lz77.NewHWMatcher(lz77.P9HWParams())
	for _, k := range []corpus.Kind{corpus.Text, corpus.JSONLogs, corpus.DNA, corpus.Binary} {
		src := corpus.Generate(k, 1<<20, Seed)
		toks, _ := m.Tokenize(nil, src)
		lf, df := deflate.CountFrequencies(toks)
		cost := func(build func([]int64, int) ([]uint8, error)) int64 {
			ll, err := build(lf, 15)
			if err != nil {
				panic(err)
			}
			dl, err := build(df, 15)
			if err != nil {
				panic(err)
			}
			var bits int64
			for s, f := range lf {
				bits += f * int64(ll[s])
			}
			for s, f := range df {
				bits += f * int64(dl[s])
			}
			return bits
		}
		heur := cost(huffman.BuildLengths)
		opt := cost(huffman.BuildLengthsOptimal)
		t.AddRow(k.String(), fmt.Sprintf("%d", heur), fmt.Sprintf("%d", opt),
			fmt.Sprintf("%+.4f%%", float64(heur-opt)/float64(opt)*100))
	}
	t.Note("payload bits only (headers excluded); the 15-bit DEFLATE limit rarely binds on real data")
	return t
}

// A10ExpansionBound measures worst-case output expansion on
// incompressible data per block mode. Storage stacks need a hard bound to
// size target buffers; DEFLATE's stored fallback caps expansion at ~5
// bytes per 64 KiB plus framing, and the auto mode always takes it.
func A10ExpansionBound() *Table {
	t := &Table{
		ID:     "A10",
		Title:  "ablation: worst-case expansion on incompressible data",
		Header: []string{"mode", "in", "out", "expansion"},
	}
	src := corpus.Generate(corpus.Random, 1<<20, Seed)
	runs := []struct {
		name string
		comp func() []byte
	}{
		{"nx fht", func() []byte {
			ctx := nx.NewDevice(nx.P9Device()).OpenContext(1)
			out, _, err := ctx.Compress(src, nx.FCCompressFHT, nx.WrapGzip, true)
			if err != nil {
				panic(err)
			}
			return out
		}},
		{"nx dht", func() []byte {
			ctx := nx.NewDevice(nx.P9Device()).OpenContext(1)
			out, _, err := ctx.Compress(src, nx.FCCompressDHT, nx.WrapGzip, true)
			if err != nil {
				panic(err)
			}
			return out
		}},
		{"sw auto (stored fallback)", func() []byte {
			out, err := deflate.CompressGzip(src, deflate.Options{Mode: deflate.ModeAuto})
			if err != nil {
				panic(err)
			}
			return out
		}},
		{"842", func() []byte {
			ctx := nx.NewDevice(nx.P9Device()).OpenContext(1)
			csb, _, err := ctx.Submit(&nx.CRB{Func: nx.FC842Compress, Input: src})
			if err != nil || csb.CC != nx.CCSuccess {
				panic(fmt.Sprintf("%v %v", err, csb.CC))
			}
			return csb.Output
		}},
	}
	for _, r := range runs {
		out := r.comp()
		t.AddRow(r.name, stats.Bytes(int64(len(src))), stats.Bytes(int64(len(out))),
			fmt.Sprintf("%+.2f%%", (float64(len(out))/float64(len(src))-1)*100))
	}
	t.Note("842's template floor is 69/64 bits per phrase (~7.8%%); DEFLATE's stored fallback caps near 0%%")
	return t
}

// A11ParseOptimality measures how far the matchers sit from a
// near-optimal parse: the DP reference bounds what any match-selection
// policy could achieve, putting the hardware's few-percent loss in
// context.
func A11ParseOptimality() *Table {
	t := &Table{
		ID:     "A11",
		Title:  "ablation: parse optimality — hw probe vs lazy sw vs DP reference",
		Header: []string{"corpus", "nx-hw ratio", "zlib-9 ratio", "optimal ratio", "hw gap"},
	}
	hw := lz77.NewHWMatcher(lz77.P9HWParams())
	sw := lz77.NewSoftMatcher(lz77.LevelParams(9))
	opt := lz77.NewOptimalMatcher()
	for _, k := range []corpus.Kind{corpus.Text, corpus.JSONLogs, corpus.Source} {
		src := corpus.Generate(k, 256<<10, Seed)
		ratio := func(tokens []lz77.Token) float64 {
			out, err := deflate.EncodeTokens(tokens, src, deflate.ModeDynamic, nil)
			if err != nil {
				panic(err)
			}
			return ratioOf(len(src), len(out))
		}
		ht, _ := hw.Tokenize(nil, src)
		rh := ratio(ht)
		rs := ratio(sw.Tokenize(nil, src))
		ro := ratio(opt.Tokenize(nil, src))
		t.AddRow(k.String(), f2(rh), f2(rs), f2(ro),
			fmt.Sprintf("-%.1f%%", (1-rh/ro)*100))
	}
	t.Note("the DP reference is near-optimal under a fixed cost model (chains capped at 512)")
	return t
}
