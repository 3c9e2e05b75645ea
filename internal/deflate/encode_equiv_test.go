package deflate

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/huffman"
	"nxzip/internal/lz77"
)

// encodeCase is one segment to serialize: a token stream with its
// expansion, how the block is coded, and the table a dynamic block uses
// (sampled: built the way the engine's DHT function code builds it, from
// the head of the stream with a +1 floor; canned: lengths handed in).
type encodeCase struct {
	tokens  []lz77.Token
	src     []byte
	mode    BlockMode
	final   bool
	sampled int     // > 0: sample this many leading tokens (ModeDynamic)
	litLen  []uint8 // canned table, nil for none
	dist    []uint8
	// undecodable marks a canned table the encoder accepts and inflaters
	// refuse (an under-subscribed code): bytes are compared, not decoded.
	undecodable bool
}

// sampleFrequencies is the engine's single-pass DHT input: symbol counts
// over the sampled tokens, every symbol floored at one.
func sampleFrequencies(count func([]lz77.Token) ([]int64, []int64), tokens []lz77.Token) ([]int64, []int64) {
	lf, df := count(tokens)
	for i := range lf {
		lf[i]++
	}
	for i := range df {
		df[i]++
	}
	return lf, df
}

// refEncode serializes c with the reference encoder, appending to prefix.
func refEncode(c encodeCase, prefix []byte) ([]byte, error) {
	var dht *refDHT
	switch {
	case c.sampled > 0:
		lf, df := sampleFrequencies(refCountFrequencies, c.tokens[:c.sampled])
		var err error
		if dht, err = refBuildDHT(lf, df); err != nil {
			return nil, err
		}
	case c.litLen != nil:
		dht = &refDHT{LitLen: c.litLen, Dist: c.dist}
	}
	var e refStreamEncoder
	return e.EncodeStream(bytes.Clone(prefix), c.tokens, c.src, c.mode, dht, c.final)
}

// prodEncode serializes c with the production encoder into dst; a sampled
// table is built in the encoder's scratch, as the engine builds it.
func prodEncode(e *StreamEncoder, c encodeCase, dst []byte) ([]byte, error) {
	var dht *DHT
	switch {
	case c.sampled > 0:
		if dht = e.SampleDHT(c.tokens[:c.sampled]); dht == nil {
			return nil, fmt.Errorf("SampleDHT built no table")
		}
	case c.litLen != nil:
		dht = &DHT{LitLen: c.litLen, Dist: c.dist}
	}
	return e.EncodeStream(dst, c.tokens, c.src, c.mode, dht, c.final)
}

func errText(err error) string {
	if err == nil {
		return "nil"
	}
	return err.Error()
}

// checkEncodeEqualsReference requires the production encoder to append
// exactly the reference's bytes (or fail with the reference's error) for
// every shape of dst: nil, and an 11-byte prefix inside a guard buffer
// with spare capacity from none, through each of 1..7 bytes short of and
// past the output's end, to roomy. Bytes of the guard beyond cap(dst) must
// come back untouched whether or not the output fitted; the prefix always.
func checkEncodeEqualsReference(t testing.TB, e *StreamEncoder, name string, c encodeCase) {
	t.Helper()
	prefix := []byte("prefix-\x00\xff-11")
	want, wantErr := refEncode(c, prefix)

	got, gotErr := prodEncode(e, c, nil)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want[len(prefix):]) {
		t.Fatalf("%s: nil dst: %d bytes differ from reference's %d (first at %d)",
			name, len(got), len(want)-len(prefix), firstDiff(got, want[len(prefix):]))
	}
	if wantErr == nil && !c.undecodable {
		// An independent decoder reads it back. A non-final segment ends
		// byte-aligned on its sync flush; an empty final stored block
		// closes the stream.
		stream := got
		if !c.final {
			stream = append(bytes.Clone(got), 1, 0, 0, 0xff, 0xff)
		}
		if plain := stdlibInflate(t, stream); !bytes.Equal(plain, c.src) {
			t.Fatalf("%s: compress/flate inflates %d bytes, input was %d", name, len(plain), len(c.src))
		}
	}
	caps := []int{len(prefix), len(want) + 4096}
	for d := -8; d <= 8; d++ {
		if n := len(want) + d; n >= len(prefix) {
			caps = append(caps, n)
		}
	}
	for _, dstCap := range caps {
		guard := bytes.Repeat([]byte{0xA5}, dstCap+64)
		copy(guard, prefix)
		got, gotErr := prodEncode(e, c, guard[:len(prefix):dstCap])
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s cap %d: error %v, reference %v", name, dstCap, gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s cap %d: %d bytes differ from reference's %d (first at %d)",
				name, dstCap, len(got), len(want), firstDiff(got, want))
		}
		if !bytes.Equal(guard[:len(prefix)], prefix) {
			t.Fatalf("%s cap %d: the bytes already in dst were overwritten", name, dstCap)
		}
		for i, b := range guard[dstCap:] {
			if b != 0xA5 {
				t.Fatalf("%s cap %d: wrote %d bytes past cap(dst)", name, dstCap, i+1)
			}
		}
		if wantErr == nil && len(want) <= dstCap && &got[0] != &guard[0] {
			t.Fatalf("%s cap %d: output fits dst but was not encoded into it", name, dstCap)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// expandTokens is the tokens' plaintext (the stored fallback needs it).
func expandTokens(t testing.TB, tokens []lz77.Token) []byte {
	t.Helper()
	out, err := lz77.Expand(nil, tokens)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// edgeTokens are streams no matcher run is sure to produce: every literal,
// every match length at the nearest and the farthest distance, every
// distance symbol's first and last distance, the longest-farthest match
// repeated (the most bits a token can carry) and as the last token, the
// smallest alphabets, and every count of bits pending before the flush.
func edgeTokens() map[string][]lz77.Token {
	var window []lz77.Token
	for i := 0; i < lz77.WindowSize; i++ {
		window = append(window, lz77.Lit(byte(i*7)))
	}
	allLens := append([]lz77.Token{}, window...)
	for l := lz77.MinMatch; l <= lz77.MaxMatch; l++ {
		allLens = append(allLens, lz77.Match(l, 1), lz77.Match(l, lz77.WindowSize))
	}
	allDists := append([]lz77.Token{}, window...)
	for s := 0; s < NumDist; s++ {
		lo := int(distBase[s])
		hi := lo + 1<<distExtra[s] - 1
		allDists = append(allDists, lz77.Match(3, lo), lz77.Match(258, hi), lz77.Match(4, (lo+hi)/2))
	}
	widest := append([]lz77.Token{}, window...)
	for i := 0; i < 300; i++ {
		widest = append(widest, lz77.Match(257, lz77.WindowSize-1), lz77.Match(258, lz77.WindowSize))
	}
	var allLits []lz77.Token
	for i := 0; i < 256; i++ {
		allLits = append(allLits, lz77.Lit(byte(i)))
	}
	out := map[string][]lz77.Token{
		"none":       nil,
		"oneLiteral": {lz77.Lit('a')},
		"oneSymbol":  bytes2lits(bytes.Repeat([]byte{'a'}, 40)),
		"twoSymbols": bytes2lits(bytes.Repeat([]byte("ab"), 40)),
		"runOnly":    {lz77.Lit(0), lz77.Match(258, 1), lz77.Match(258, 1), lz77.Match(3, 1)},
		"allLits":    allLits,
		"allLens":    allLens,
		"allDists":   allDists,
		"widest":     widest,
		// The widest token last: with dst short of room by a byte or a few
		// it is the token in hand when the buffer has to grow.
		"widestLast": append(append([]lz77.Token{}, window...), lz77.Match(258, lz77.WindowSize)),
	}
	// k nine-bit literals under the fixed table leave the block (3 header
	// bits, 7 for end-of-block) ending 2+k bits into a byte: every count of
	// pending bits, odd and even, in front of a sync flush.
	for k := 0; k < 8; k++ {
		out[fmt.Sprintf("pending%d", (2+k)%8)] = bytes2lits(bytes.Repeat([]byte{0x90}, k))
	}
	return out
}

func bytes2lits(p []byte) []lz77.Token {
	out := make([]lz77.Token, len(p))
	for i, b := range p {
		out[i] = lz77.Lit(b)
	}
	return out
}

// cannedTables are the tables a caller may hand in: complete ones built
// from other data with the +1 floor, one that covers only what its own
// sample used (so other streams hit "missing code"), a valid but
// under-subscribed one, and two a table constructor must reject.
func cannedTables(t testing.TB) map[string][2][]uint8 {
	t.Helper()
	m := lz77.NewHWMatcher(lz77.P9HWParams())
	build := func(kind corpus.Kind, floor bool) [2][]uint8 {
		tokens, _ := m.Tokenize(nil, corpus.Generate(kind, 48<<10, 5))
		lf, df := refCountFrequencies(tokens)
		if floor {
			lf, df = sampleFrequencies(refCountFrequencies, tokens)
		}
		d, err := refBuildDHT(lf, df)
		if err != nil {
			t.Fatal(err)
		}
		return [2][]uint8{d.LitLen, d.Dist}
	}
	flat := make([]uint8, NumLitLen)
	for i := range flat {
		flat[i] = 9 // 286 nine-bit codes: Kraft sum 286/512
	}
	ones := make([]uint8, NumLitLen)
	for i := range ones {
		ones[i] = 1
	}
	return map[string][2][]uint8{
		"text-floor":     build(corpus.Text, true),
		"binary-floor":   build(corpus.Binary, true),
		"text-own":       build(corpus.Text, false),
		"undersubscribe": {flat, flat[:NumDist]},
		"oversubscribed": {ones, flat[:NumDist]},
		"too-large":      {make([]uint8, NumLitLen+3), flat[:NumDist]},
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestEncodeEqualsReference(t *testing.T) {
	streams := edgeTokens()
	hw := lz77.NewHWMatcher(lz77.Z15HWParams())
	for _, k := range corpus.Kinds() {
		streams["corpus-"+k.String()], _ = hw.Tokenize(nil, corpus.Generate(k, 80<<10, 7))
	}
	soft := lz77.NewSoftMatcher(lz77.LevelParams(6))
	for name, plain := range corpusInputs(t) {
		streams["soft-"+name] = soft.Tokenize(nil, plain)
	}
	tables := cannedTables(t)
	var e StreamEncoder // one long-lived encoder: scratch carried from case to case
	for _, name := range sortedKeys(streams) {
		tokens := streams[name]
		src := expandTokens(t, tokens)
		for _, final := range []bool{true, false} {
			base := encodeCase{tokens: tokens, src: src, final: final}
			for _, mode := range []BlockMode{ModeFixed, ModeAuto, ModeDynamic, ModeStored} {
				c := base
				c.mode = mode
				checkEncodeEqualsReference(t, &e, fmt.Sprintf("%s/%s/final=%v", name, mode, final), c)
			}
			for _, n := range []int{1, len(tokens) / 3, len(tokens)} {
				if n < 1 || n > len(tokens) {
					continue
				}
				c := base
				c.mode, c.sampled = ModeDynamic, n
				checkEncodeEqualsReference(t, &e, fmt.Sprintf("%s/sampled%d/final=%v", name, n, final), c)
			}
			for _, tn := range sortedKeys(tables) {
				for _, mode := range []BlockMode{ModeDynamic, ModeAuto} {
					c := base
					c.mode, c.litLen, c.dist = mode, tables[tn][0], tables[tn][1]
					c.undecodable = tn == "undersubscribe"
					checkEncodeEqualsReference(t, &e, fmt.Sprintf("%s/canned-%s/%s/final=%v", name, tn, mode, final), c)
				}
			}
		}
	}
}

// checkTablesEqualReference holds table construction to the reference on
// one frequency vector: code lengths (over at most the MaxSymbols a table
// can have) under both of DEFLATE's limits and one between, the canonical
// codes of those lengths, and (when the vector is alphabet sized) the DHT
// pair.
func checkTablesEqualReference(t testing.TB, name string, freqs []int64) {
	t.Helper()
	alphabet := freqs[:min(len(freqs), huffman.MaxSymbols)]
	for _, maxBits := range []int{maxCLCodeLen, 9, maxCodeLen} {
		want, wantErr := refBuildLengths(alphabet, maxBits)
		got, gotErr := huffman.BuildLengths(alphabet, maxBits)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s maxBits %d: error %v, reference %v", name, maxBits, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s maxBits %d: lengths\n got  %v\n want %v", name, maxBits, got, want)
		}
		wantEnc, wantErr := newRefEncoder(want)
		gotEnc, gotErr := huffman.NewEncoder(got)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s maxBits %d: encoder error %v, reference %v", name, maxBits, gotErr, wantErr)
		}
		for sym, w := range wantEnc.Codes {
			if g := gotEnc.Codes[sym]; g.Bits != w.Bits || g.Len != w.Len {
				t.Fatalf("%s maxBits %d: symbol %d code %+v, reference %+v", name, maxBits, sym, g, w)
			}
		}
	}
	if len(freqs) < NumLitLen {
		return
	}
	want, wantErr := refBuildDHT(freqs[:NumLitLen], freqs[len(freqs)-NumDist:])
	got, gotErr := BuildDHT(freqs[:NumLitLen], freqs[len(freqs)-NumDist:])
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: BuildDHT error %v, reference %v", name, gotErr, wantErr)
	}
	if wantErr == nil && (!bytes.Equal(got.LitLen, want.LitLen) || !bytes.Equal(got.Dist, want.Dist)) {
		t.Fatalf("%s: BuildDHT lengths differ from the reference's", name)
	}
}

// tableVectors are frequency vectors aimed at the builder's decisions:
// every weight tied (the heap's sift order alone decides the shape), ties
// among subtree weights, Fibonacci and doubling weights (the deepest trees
// there are: repairOverflow runs at every limit), a long flat tail under a
// few heavy symbols (overflow with many symbols to redistribute), one and
// two live symbols, and plain noise.
func tableVectors() map[string][]int64 {
	rng := rand.New(rand.NewSource(16))
	out := map[string][]int64{
		"empty": make([]int64, NumLitLen),
		"one":   append(make([]int64, 40), 9),
		"two":   append(append(make([]int64, 40), 9), 0, 0, 9),
	}
	for _, n := range []int{2, 3, 19, 30, 31, 255, 256, 257, NumLitLen, 288} {
		tied := make([]int64, n)
		for i := range tied {
			tied[i] = 5
		}
		out[fmt.Sprintf("tied%d", n)] = tied
		steps := make([]int64, n)
		for i := range steps {
			steps[i] = int64(1 + i%4) // weights 1..4: sums tie with leaves all the way up
		}
		out[fmt.Sprintf("steps%d", n)] = steps
	}
	fib := make([]int64, 60)
	fib[0], fib[1] = 1, 1
	for i := 2; i < len(fib); i++ {
		fib[i] = fib[i-1] + fib[i-2]
	}
	out["fib"] = fib
	out["fibReversed"] = make([]int64, len(fib))
	for i, f := range fib {
		out["fibReversed"][len(fib)-1-i] = f
	}
	doubling := make([]int64, NumLitLen)
	for i := range doubling {
		doubling[i] = 1 << (i % 50)
	}
	out["doubling"] = doubling
	tail := make([]int64, NumLitLen)
	for i := range tail {
		tail[i] = 1
	}
	for i := 0; i < 12; i++ {
		tail[i*20] = 1 << (10 + 3*i)
	}
	out["heavyHeadFlatTail"] = tail
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(287)
		v := make([]int64, n)
		for i := range v {
			switch trial % 4 {
			case 0:
				v[i] = int64(rng.Intn(4)) // mostly ties, some zeros
			case 1:
				v[i] = int64(rng.Intn(100000))
			case 2:
				v[i] = int64(1) << rng.Intn(40)
			default:
				v[i] = int64(rng.Intn(3)) * int64(rng.Intn(1000))
			}
		}
		out[fmt.Sprintf("noise%d", trial)] = v
	}
	return out
}

func TestHuffmanTablesEqualReference(t *testing.T) {
	vectors := tableVectors()
	for _, name := range sortedKeys(vectors) {
		checkTablesEqualReference(t, name, vectors[name])
	}
	if _, err := huffman.BuildLengths([]int64{3, -1}, 15); err == nil {
		t.Fatal("negative frequency accepted")
	}
}

func FuzzEncodeEqualsReference(f *testing.F) {
	f.Add([]byte("abcabcabcabcabc"), uint16(0))
	f.Add([]byte("hello hello hello hello"), uint16(0x0d))
	f.Add(bytes.Repeat([]byte{0}, 700), uint16(0x12))
	f.Add(corpus.Generate(corpus.Text, 3000, 3), uint16(0x27))
	f.Add(corpus.Generate(corpus.Binary, 3000, 3), uint16(0x3a))
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}, uint16(0x44))
	hw := lz77.NewHWMatcher(lz77.HWParams{InputWidth: 8, Banks: 4, Ways: 4, HashBits: 6})
	tables := cannedTables(f)
	names := sortedKeys(tables)
	var e StreamEncoder
	f.Fuzz(func(t *testing.T, data []byte, cfg uint16) {
		src := data
		if cfg>>8&1 == 1 {
			src = bytes.Repeat(data, 6) // long matches, far distances
		}
		tokens, _ := hw.Tokenize(nil, src)
		c := encodeCase{tokens: tokens, src: src, final: cfg&1 == 1}
		switch cfg >> 1 & 7 {
		case 0:
			c.mode = ModeFixed
		case 1:
			c.mode = ModeAuto
		case 2:
			c.mode = ModeStored
		case 3:
			c.mode = ModeDynamic // table from this block's own counts
		case 4, 5:
			c.mode = ModeDynamic
			if len(tokens) > 0 {
				c.sampled = 1 + int(cfg>>9)%len(tokens)
			}
		default:
			tn := names[int(cfg>>9)%len(names)]
			c.mode, c.litLen, c.dist = []BlockMode{ModeDynamic, ModeAuto}[cfg>>4&1], tables[tn][0], tables[tn][1]
			c.undecodable = tn == "undersubscribe"
		}
		checkEncodeEqualsReference(t, &e, "fuzz", c)

		// The same bytes as a frequency vector: small values tie, the
		// shifted ones stack into deep trees.
		freqs := make([]int64, 0, NumLitLen+NumDist)
		for i, b := range data {
			if i == cap(freqs) {
				break
			}
			freqs = append(freqs, int64(b&15)<<(b>>4*uint8(cfg>>12&3)))
		}
		checkTablesEqualReference(t, "fuzz", freqs)
	})
}
