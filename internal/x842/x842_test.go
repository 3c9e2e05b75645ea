package x842

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"nxzip/internal/corpus"
)

func roundTrip(t *testing.T, name string, src []byte) []byte {
	t.Helper()
	comp := Compress(src)
	got, err := Decompress(comp, 0)
	if err != nil {
		t.Fatalf("%s: decompress: %v", name, err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("%s: round-trip mismatch (%d vs %d bytes)", name, len(got), len(src))
	}
	return comp
}

func TestRoundTripBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	random := make([]byte, 40000)
	rng.Read(random)
	patterned := make([]byte, 40000)
	for i := range patterned {
		patterned[i] = byte(i / 64)
	}
	cases := map[string][]byte{
		"empty":     {},
		"one":       {0xAB},
		"seven":     []byte("1234567"),
		"eight":     []byte("12345678"),
		"nine":      []byte("123456789"),
		"zeros":     make([]byte, 8192),
		"repeat":    bytes.Repeat([]byte("ABCDEFGH"), 3000),
		"random":    random,
		"patterned": patterned,
		"text":      bytes.Repeat([]byte("the 842 format works on 8-byte phrases. "), 500),
	}
	for name, src := range cases {
		roundTrip(t, name, src)
	}
}

func TestCompressesZeros(t *testing.T) {
	src := make([]byte, 65536)
	comp := roundTrip(t, "zeros", src)
	if len(comp) > len(src)/50 {
		t.Fatalf("zeros compressed to %d bytes, want < 2%%", len(comp))
	}
}

func TestCompressesRepeats(t *testing.T) {
	src := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 8192)
	comp := roundTrip(t, "repeats", src)
	if len(comp) > len(src)/40 {
		t.Fatalf("repeats compressed to %d bytes of %d", len(comp), len(src))
	}
}

func TestRandomDataExpansionBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 32768)
	rng.Read(src)
	comp := roundTrip(t, "random", src)
	// Worst case per phrase: 5 op bits + 64 data bits = 69/64 expansion.
	if len(comp) > len(src)*69/64+16 {
		t.Fatalf("expansion %d -> %d exceeds template bound", len(src), len(comp))
	}
}

func TestFifoReferencesAcrossWindow(t *testing.T) {
	// Chunks recur at spacings straddling each fifo window size.
	var src []byte
	marker := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04}
	filler := make([]byte, 8)
	rng := rand.New(rand.NewSource(5))
	for _, gap := range []int{16, 256, 504, 512, 2040, 2048, 4096} {
		src = append(src, marker...)
		for i := 0; i < gap; i += 8 {
			rng.Read(filler)
			src = append(src, filler...)
		}
		src = append(src, marker...)
	}
	roundTrip(t, "fifo windows", src)
}

func TestRepeatRunLongerThanMax(t *testing.T) {
	// More than 64 repeats forces multiple repeat ops.
	src := bytes.Repeat([]byte("REPEATME"), 1000)
	roundTrip(t, "long repeat", src)
}

func TestShortDataAllLengths(t *testing.T) {
	for tail := 0; tail < 8; tail++ {
		src := append(bytes.Repeat([]byte{9}, 32), make([]byte, tail)...)
		for i := range src[32:] {
			src[32+i] = byte(i + 1)
		}
		roundTrip(t, "tail", src)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	panicked := 0
	for i := 0; i < 300; i++ {
		garbage := make([]byte, rng.Intn(100)+1)
		rng.Read(garbage)
		func() {
			defer func() {
				if recover() != nil {
					panicked++
				}
			}()
			_, _ = Decompress(garbage, 1<<20)
		}()
	}
	if panicked > 0 {
		t.Fatalf("%d/300 garbage inputs caused panics", panicked)
	}
}

func TestDecompressTruncated(t *testing.T) {
	// END is the final operation, so every proper prefix stops inside one:
	// corrupt for callers that only ask that, truncated for those that can
	// fetch more.
	src := append(bytes.Repeat([]byte("TRUNCATE"), 100), corpus.Generate(corpus.Text, 1003, 9)...)
	comp := Compress(src)
	for cut := 0; cut < len(comp); cut++ {
		if _, err := Decompress(comp[:cut], 0); !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncation at %d of %d: %v", cut, len(comp), err)
		}
	}
}

func TestDecompressOutputLimit(t *testing.T) {
	src := append(make([]byte, 100000), 1, 2, 3)
	comp := Compress(src)
	for _, budget := range []int{1, 100, len(src) - 8, len(src) - 1} {
		if _, err := Decompress(comp, budget); !errors.Is(err, ErrTooLarge) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("budget %d: %v, want ErrTooLarge alone", budget, err)
		}
	}
	if out, err := Decompress(comp, len(src)); err != nil || !bytes.Equal(out, src) {
		t.Fatalf("exact budget: %d bytes, err %v", len(out), err)
	}
}

func TestRepeatWithNoPrevious(t *testing.T) {
	w := &refMSBWriter{}
	w.writeBits(opRepeat, opBits)
	w.writeBits(3, repeatBits)
	w.writeBits(opEnd, opBits)
	if _, err := Decompress(w.bytes(), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("repeat with no previous phrase: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(src []byte) bool {
		comp := Compress(src)
		got, err := Decompress(comp, 0)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripStructuredProperty(t *testing.T) {
	// Inputs with heavy chunk reuse to exercise all index paths.
	rng := rand.New(rand.NewSource(8))
	dict := make([][]byte, 16)
	for i := range dict {
		dict[i] = make([]byte, 2)
		rng.Read(dict[i])
	}
	for trial := 0; trial < 100; trial++ {
		var src []byte
		n := rng.Intn(6000)
		for len(src) < n {
			src = append(src, dict[rng.Intn(len(dict))]...)
		}
		roundTrip(t, "structured", src)
	}
}

func TestResolveIndexSymmetry(t *testing.T) {
	// The index the encoder writes for a position (its ring slot) and the
	// decoder's resolve must be inverse for every position in reach of a
	// phrase, whether or not the phrase starts aligned (it does not after a
	// mid-stream OP_SHORT_DATA); out of reach resolve must refuse or name
	// decoded bytes, never the phrase itself.
	for _, f := range fifos {
		chunk := f.chunk
		for total := 0; total < 3*f.fsize; total += 1 + total%7 {
			for idx := 0; idx < f.fsize/chunk; idx++ {
				off := resolve(uint64(idx), total, f.log, f.fsize)
				if want, err := refResolveIndex(idx, total, chunk, f.fsize); (err != nil) != (off < 0) || (err == nil && off != want) {
					t.Fatalf("chunk %d total %d idx %d: resolved to %d, reference %d (%v)", chunk, total, idx, off, want, err)
				}
			}
			for cand := max(0, total&^7-f.fsize) &^ (chunk - 1); total%8 == 0 && cand+chunk <= total; cand += chunk {
				idx := cand >> f.log & (f.fsize/chunk - 1) // as find returns it
				if got := resolve(uint64(idx), total, f.log, f.fsize); got != cand {
					t.Fatalf("chunk %d total %d cand %d: resolved to %d", chunk, total, cand, got)
				}
			}
		}
	}
}

func TestMSBBitIO(t *testing.T) {
	// put and peek against the reference writer and reader: every count put
	// takes, at every bit phase.
	rng := rand.New(rand.NewSource(57))
	for phase := uint(0); phase < 8; phase++ {
		var (
			dst  = make([]byte, 1024)
			ref  = &refMSBWriter{}
			o    int
			acc  uint64
			nacc uint
			vals []uint64
		)
		o, acc, nacc = put(dst, o, acc, nacc, 0, phase)
		ref.writeBits(0, phase)
		for n := uint(0); n <= 56; n++ {
			v := rng.Uint64() >> (64 - n) // 0 when n is 0
			vals = append(vals, v)
			o, acc, nacc = put(dst, o, acc, nacc, v, n)
			ref.writeBits(v, n)
		}
		if nacc >= 8 || acc<<nacc != 0 {
			t.Fatalf("phase %d: %d pending bits, accumulator %#x", phase, nacc, acc)
		}
		got := dst[:o+int(nacc+7)>>3]
		if !bytes.Equal(got, ref.bytes()) {
			t.Fatalf("phase %d: put wrote\n%x, reference\n%x", phase, got, ref.bytes())
		}
		r := &refMSBReader{data: got}
		bp := int(phase)
		if _, err := r.readBits(phase); err != nil {
			t.Fatal(err)
		}
		padded := append(bytes.Clone(got), make([]byte, 8)...)
		for n, v := range vals {
			want, err := r.readBits(uint(n))
			if err != nil || want != v {
				t.Fatalf("phase %d: reference read %#x of %d bits, err %v; wrote %#x", phase, want, n, err, v)
			}
			if n > 0 && peek(padded, bp)>>(64-uint(n)) != v {
				t.Fatalf("phase %d: peek at bit %d read %#x of %d bits, wrote %#x", phase, bp, peek(padded, bp)>>(64-uint(n)), n, v)
			}
			bp += n
		}
	}
}

func TestTemplateTableConsistency(t *testing.T) {
	// Every template's actions must cover exactly 8 bytes, and opLen must
	// be its opcode plus its actions.
	for op, tmpl := range templates {
		total, bits := 0, uint(opBits)
		for _, a := range tmpl {
			total += actionBytes[a]
			bits += actionBits[a]
		}
		if total != 8 {
			t.Fatalf("template %#x covers %d bytes", op, total)
		}
		if uint(opLen[op]) != bits {
			t.Fatalf("template %#x: opLen %d, actions take %d bits", op, opLen[op], bits)
		}
	}
	// The product structure both kernels work on: opcode 5*first+second is
	// the first half's actions followed by the second's — the same bits,
	// though the table writes adjacent literals as one wider action (D2 D2
	// as D4, D4 D4 as D8) — and 0x19 is the I8.
	split := func(actions []uint8) (out []uint8) {
		for _, a := range actions {
			switch a {
			case actD8:
				out = append(out, actD2, actD2, actD2, actD2)
			case actD4:
				out = append(out, actD2, actD2)
			case actN0:
			default:
				out = append(out, a)
			}
		}
		return out
	}
	halfActions := [halfWays][]uint8{
		halfD4: {actD4}, halfD2I2: {actD2, actI2}, halfI2D2: {actI2, actD2}, halfI2I2: {actI2, actI2}, halfI4: {actI4},
	}
	for first := range halfActions {
		bits := uint(0)
		for _, a := range halfActions[first] {
			bits += actionBits[a]
		}
		if halfBits[first] != bits {
			t.Fatalf("half %d: halfBits %d, actions take %d", first, halfBits[first], bits)
		}
		for second := range halfActions {
			want := split(append(append([]uint8{}, halfActions[first]...), halfActions[second]...))
			if got := templates[halfWays*first+second]; !bytes.Equal(split(got[:]), want) {
				t.Fatalf("template %#x is %v, not half %d then half %d", halfWays*first+second, got, first, second)
			}
		}
	}
	if templates[opI8] != [4]uint8{actI8, actN0, actN0, actN0} {
		t.Fatalf("template %#x is %v, not I8", opI8, templates[opI8])
	}
	// bestTemplate against the reference encoder's per-phrase search, for
	// every combination of available indices.
	for avail := range bestTemplate {
		plan := refPhrasePlan{i2: [4]int{-1, -1, -1, -1}, i4: [2]int{-1, -1}, i8: -1}
		for q := range plan.i2 {
			plan.i2[q] += avail >> q & 1
		}
		for h := range plan.i4 {
			plan.i4[h] += avail >> (4 + h) & 1
		}
		plan.i8 += avail >> 6 & 1
		bestOp, bestCost := 0x00, uint(opBits)+64
		for op := 1; op < len(templates); op++ {
			if cost, ok := refTemplateCost(templates[op], plan); ok && cost < bestCost {
				bestOp, bestCost = op, cost
			}
		}
		if int(bestTemplate[avail]) != bestOp {
			t.Fatalf("bestTemplate[%07b] = %#x, the search picks %#x", avail, bestTemplate[avail], bestOp)
		}
		// The lookups Compress skips cannot change the choice: an I8 decides
		// alone, an I4 decides its half whatever that half's I2s are.
		if avail>>6 == 1 && bestOp != opI8 {
			t.Fatalf("bestTemplate[%07b] = %#x with an I8 available", avail, bestOp)
		}
		for h := 0; h < 2; h++ {
			if avail>>(4+h)&1 == 1 && bestTemplate[avail&^(3<<(2*h))] != bestTemplate[avail] {
				t.Fatalf("bestTemplate[%07b]: half %d has an I4 yet its I2 bits change the choice", avail, h)
			}
		}
	}
}

// TestMaxInput checks the limit on the arithmetic: the largest value the
// match tables store for a MaxInput-byte source fits their int32, and one
// more phrase would not.
func TestMaxInput(t *testing.T) {
	largest := func(n int64) int64 { // position+1 of the last quarter of the last whole phrase
		return (n-8)&^7 + 6 + 1
	}
	if v := largest(MaxInput); int64(int32(v)) != v {
		t.Fatalf("a MaxInput-byte source stores %d, which does not fit an int32", v)
	}
	if v := largest(MaxInput + 16); int64(int32(v)) == v {
		t.Fatalf("MaxInput is conservative by two phrases: %d still fits", v)
	}
}

// TestOneAllocation is the codec's allocation gate (make bench-alloc):
// Compress allocates its output, sized to the format's worst case, and
// Decompress under an exact budget allocates its output and nothing else
// (a stream that expands more than twofold grows it from 2*len(src)).
func TestOneAllocation(t *testing.T) {
	for _, k := range []corpus.Kind{corpus.Text, corpus.Binary, corpus.Random} {
		src := corpus.Generate(k, 64<<10+5, 3)
		var comp []byte
		if n := testing.AllocsPerRun(10, func() { comp = Compress(src) }); n != 1 {
			t.Errorf("%s: Compress allocates %v times, want 1", k, n)
		}
		if n := testing.AllocsPerRun(10, func() {
			if _, err := Decompress(comp, len(src)); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: Decompress under an exact budget allocates %v times, want 1", k, n)
		}
	}
}

func TestD8Roundtrip(t *testing.T) {
	// A phrase with no possible matches uses the D8 template; verify the
	// 57/7 split is lossless for values with high bits set.
	var src [16]byte
	binary.BigEndian.PutUint64(src[0:], 0xFFFFFFFFFFFFFFFF)
	binary.BigEndian.PutUint64(src[8:], 0x8000000000000001)
	roundTrip(t, "d8", src[:])
}

// benchInputs is AME's page, codec_mix's payload and a bulk buffer, each
// over five entropy classes.
func benchInputs() (names []string, inputs [][]byte) {
	for _, size := range []struct {
		name string
		n    int
	}{{"4K", 4 << 10}, {"64K", 64 << 10}, {"1M", 1 << 20}} {
		for _, k := range []corpus.Kind{corpus.Text, corpus.Columnar, corpus.Binary, corpus.Zeros, corpus.Random} {
			names = append(names, k.String()+"/"+size.name)
			inputs = append(inputs, corpus.Generate(k, size.n, 1))
		}
	}
	return names, inputs
}

// collidingInput is the match tables' worst case, built against their
// hash: every 4-byte half of every phrase lands in one head4 bucket and
// every phrase in one head8 bucket, and no value recurs within 4 KiB — so
// each of those lookups walks a chain as long as its ring (512 and 256
// links) and finds nothing. A multiplicative hash of a phrase is that of
// its first half shifted up plus that of its second, so the search is for
// halves alone: about 2^30 multiplications.
func collidingInput(n int) []byte {
	var firsts, seconds []uint64
	for v := uint64(1); len(firsts) < 512; v++ {
		switch p := v * hashMul; {
		case p>>53 != 0:
		case p<<32>>54 == 0:
			firsts = append(firsts, v)
		case len(seconds) < 512:
			seconds = append(seconds, v)
		}
	}
	block := make([]byte, 0, 8*len(firsts))
	for i, first := range firsts {
		block = binary.BigEndian.AppendUint64(block, first<<32|seconds[i])
	}
	return bytes.Repeat(block, n/len(block)+1)[:n]
}

var benchSink []byte

func BenchmarkCompress842(b *testing.B) {
	run := func(name string, input func() []byte) {
		b.Run(name, func(b *testing.B) {
			src := input()
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = Compress(src)
			}
		})
	}
	names, inputs := benchInputs()
	for i, src := range inputs {
		run(names[i], func() []byte { return src })
	}
	// Built once, and only if this sub-benchmark is selected: the search
	// takes a second.
	run("colliding/64K", sync.OnceValue(func() []byte {
		src := collidingInput(64 << 10)
		if !bytes.Equal(Compress(src), refCompress(src)) {
			b.Fatal("colliding input: bytes differ from the reference encoder's")
		}
		return src
	}))
}

func BenchmarkDecompress842(b *testing.B) {
	names, inputs := benchInputs()
	for i, src := range inputs {
		comp := Compress(src)
		b.Run(names[i], func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				out, err := Decompress(comp, len(src))
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}
