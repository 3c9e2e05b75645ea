package lz77

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nxzip/internal/corpus"
)

// hwPair runs the production matcher and the reference side by side. Both
// matchers live as long as the pair, so every call after the first also
// has the previous operation's entries to see through.
type hwPair struct {
	hw  *HWMatcher
	ref *refHWMatcher
}

func newHWPair(p HWParams) *hwPair {
	hw := NewHWMatcher(p)
	return &hwPair{hw: hw, ref: newRefHWMatcher(hw.Params())}
}

// check tokenizes src after history on both sides and reports the first
// difference in the token streams or in any HWStats field.
func (pr *hwPair) check(history, src []byte) error {
	got, gst := pr.hw.TokenizeWithHistory(nil, history, src)
	want, wst := pr.ref.TokenizeWithHistory(nil, history, src)
	if gst != wst {
		return fmt.Errorf("stats differ:\n got  %+v\n want %+v", gst, wst)
	}
	if err := diffTokens(got, want); err != nil {
		return err
	}
	return ValidateWithHistory(got, history, src)
}

// diffTokens reports the first place two token streams part.
func diffTokens(got, want []Token) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tokens, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("token %d = %v, reference has %v", i, got[i], want[i])
		}
	}
	return nil
}

// diffParamGrid is Ways {1, 3, 4, 16} x Banks 2..64 x Lazy x MaxDist
// {256, 32 KiB}. The small HashBits make sets overflow and evict on short
// inputs; MaxDist 256 makes the out-of-window break fire.
func diffParamGrid() []HWParams {
	var ps []HWParams
	for _, ways := range []int{1, 3, 4, 16} {
		for banks := 2; banks <= 64; banks *= 2 {
			for _, lazy := range []bool{false, true} {
				for _, maxDist := range []int{256, WindowSize} {
					ps = append(ps, HWParams{
						InputWidth: 4 + banks%3*6, Banks: banks, Ways: ways,
						HashBits: 3 + banks%5, Lazy: lazy, MaxDist: maxDist,
					})
				}
			}
		}
	}
	return ps
}

// diffInputs are short inputs aimed at the matcher's edges.
func diffInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(12))
	// The same 4-byte prefix followed by contexts of different lengths,
	// so one set holds candidates of many match lengths and the
	// longest-then-nearest selection is decided way by way.
	var ladder []byte
	for i := 0; i < 300; i++ {
		ladder = append(ladder, "abcdefghijklmnopqrstuvwxyz"[:4+rng.Intn(20)]...)
		ladder = append(ladder, byte(rng.Intn(4)))
	}
	lowEntropy := make([]byte, 4096)
	for i := range lowEntropy {
		lowEntropy[i] = byte(rng.Intn(3))
	}
	random := make([]byte, 2048)
	rng.Read(random)
	in := map[string][]byte{
		"ladder":      ladder,
		"lowentropy":  lowEntropy,
		"random":      random,
		"allequal":    bytes.Repeat([]byte{7}, 3000),
		"longrun":     append(append(bytes.Repeat([]byte("xy"), 700), random[:100]...), bytes.Repeat([]byte{0}, 900)...),
		"endsOnMatch": []byte("abcdefgh-0123-abcdefgh"),
		"endsOnMax":   append(bytes.Repeat([]byte("q"), MaxMatch+1), bytes.Repeat([]byte("q"), MaxMatch)...),
		"period300":   bytes.Repeat(random[:300], 8),
		"text":        corpus.Generate(corpus.Text, 6000, 12),
		"binary":      corpus.Generate(corpus.Binary, 6000, 12),
	}
	for n := 0; n <= 5; n++ {
		in[fmt.Sprintf("len%d", n)] = []byte("aaaaa")[:n]
	}
	return in
}

// diffOp is one operation: src tokenized with history in front of it.
type diffOp struct{ history, src []byte }

// diffRow is a sequence of operations run in order on one long-lived pair
// per geometry. cfg is the FuzzHWMatcherEqualsReference geometry word its
// operations are seeded under; the test runs that geometry too.
type diffRow struct {
	name   string
	params []HWParams
	cfg    uint16
	ops    []diffOp
}

// repeatAt is random bytes whose first 24 come back dist bytes later and
// nowhere else.
func repeatAt(dist int) []byte {
	rng := rand.New(rand.NewSource(int64(dist)))
	src := make([]byte, dist+24+8)
	rng.Read(src)
	copy(src[dist:], src[:24])
	return src
}

// evictInput puts "abcd" and a long context into one set, then between
// more "abcd"s with nothing in common after it, then the long context
// again: whether the last probe still finds the first insert is whether
// between < Ways.
func evictInput(between int) []byte {
	long := []byte("abcd-a context long enough to be worth a match-")
	src := append([]byte{}, long...)
	for k := 0; k < between; k++ {
		src = append(src, 'a', 'b', 'c', 'd', byte(128+k%128), byte(k>>7), '#')
	}
	return append(src, long...)
}

// lazySameSetInput has runs of one byte, 5 to 39 long, each followed by a
// tail an earlier "aaaa" was followed by. Inside a run hash4(i) ==
// hash4(i+1): the lazy probe of i+1 reads the set i was inserted into a
// moment ago, and where the run meets the tail it is the longer match.
func lazySameSetInput() []byte {
	rng := rand.New(rand.NewSource(13))
	tail := []byte("XYZWVUTSRQPONMLK")
	var src []byte
	for run := 5; run < 40; run++ {
		src = append(src, "aaaa"...)
		src = append(src, tail[:4+run%12]...)
		src = append(src, byte(rng.Intn(256)), byte(rng.Intn(256)))
		src = append(src, bytes.Repeat([]byte{'a'}, run)...)
		src = append(src, tail[:4+run%12]...)
		src = append(src, byte(rng.Intn(256)))
	}
	return src
}

// diffRows are the cases a set kept as a chain through the window could get
// wrong where a row of Ways slots could not: the window's last distance and
// the one past it, a set that takes more inserts than it has ways (eviction
// is then the walk's step limit), bases that cross several multiples of any
// power-of-two ring length with a full history replayed each time, and a
// lazy probe of the set the previous position was just linked into.
func diffRows() []diffRow {
	shipped := []HWParams{P9HWParams(), Z15HWParams()}
	// The fuzz geometry with sets enough that 32 Ki inserts evict next to
	// nothing: Ways 16, Banks 64, MaxDist 32 KiB, HashBits 7; and it, lazy.
	const wide, wideLazy = 3 | 5<<2 | 1<<6 | 1<<7, 3 | 5<<2 | 1<<5 | 1<<6 | 1<<7
	lazyRuns := lazySameSetInput()
	rows := []diffRow{
		{"dist32768", shipped, wide, []diffOp{{nil, repeatAt(WindowSize)}}},
		{"dist32769", shipped, wideLazy, []diffOp{{nil, repeatAt(WindowSize + 1)}}},
		{"lazySameSet", []HWParams{Z15HWParams(), {InputWidth: 4, Banks: 2, Ways: 3, HashBits: 3, Lazy: true}}, wideLazy,
			[]diffOp{{nil, lazyRuns}, {lazyRuns[:700], lazyRuns[700:]}}},
	}
	for w, ways := range []int{1, 3, 4, 16} {
		row := diffRow{name: fmt.Sprintf("evict%dways", ways), cfg: wide&^3 | uint16(w)}
		for _, lazy := range []bool{false, true} {
			row.params = append(row.params, HWParams{InputWidth: 8, Banks: 16, Ways: ways, HashBits: 11, Lazy: lazy})
		}
		for _, between := range []int{ways - 1, ways, ways + 1, 3 * ways} {
			row.ops = append(row.ops, diffOp{nil, evictInput(between)})
		}
		rows = append(rows, row)
	}
	// One long text walked front to back, every operation behind the 32 KiB
	// that precede it: each moves the base by 64 KiB + 1 + its length.
	text := corpus.Generate(corpus.Text, 256<<10, 12)
	ring := diffRow{name: "ringCrossing", cfg: wide&^3 | 2, // 4 ways
		params: append(shipped, HWParams{InputWidth: 8, Banks: 4, Ways: 3, HashBits: 4})}
	off := WindowSize
	for _, n := range []int{1, 5000, 33000, 20000, 9, 40000, 2*WindowSize + 3, 12345} {
		ring.ops = append(ring.ops, diffOp{text[off-WindowSize : off], text[off : off+n]})
		off += n
	}
	return append(rows, ring)
}

// fuzzParams decodes FuzzHWMatcherEqualsReference's geometry word.
func fuzzParams(cfg uint16) HWParams {
	return HWParams{
		Ways:       []int{1, 3, 4, 16}[cfg&3],
		Banks:      2 << ((cfg >> 2 & 7) % 6),
		Lazy:       cfg>>5&1 == 1,
		MaxDist:    []int{256, WindowSize}[cfg>>6&1],
		HashBits:   []int{3, 7}[cfg>>7&1],
		InputWidth: []int{4, 8, 16, 5}[cfg>>8&3],
	}
}

func TestHWMatcherEqualsReference(t *testing.T) {
	inputs := diffInputs()
	for _, p := range diffParamGrid() {
		pr := newHWPair(p)
		for name, src := range inputs {
			// No history, then the same bytes split into history + src at
			// a few points (1 and 3: history too short to insert fully;
			// 300: longer than MaxDist 256, so it is truncated).
			for _, split := range []int{0, 1, 3, 300, len(src) / 2} {
				if split > len(src) {
					continue
				}
				if err := pr.check(src[:split], src[split:]); err != nil {
					t.Fatalf("%+v input %q split %d: %v", pr.hw.Params(), name, split, err)
				}
			}
		}
	}
	for _, row := range diffRows() {
		for _, p := range append(row.params, fuzzParams(row.cfg)) {
			pr := newHWPair(p)
			for i, op := range row.ops {
				if err := pr.check(op.history, op.src); err != nil {
					t.Fatalf("%+v row %q operation %d: %v", pr.hw.Params(), row.name, i, err)
				}
			}
		}
	}
	// The two window-edge rows are only that if the repeat is found at
	// distance MaxDist and not found a byte farther.
	for _, dist := range []int{WindowSize, WindowSize + 1} {
		tokens, _ := NewHWMatcher(P9HWParams()).Tokenize(nil, repeatAt(dist))
		found := false
		for _, tok := range tokens {
			found = found || tok.IsMatch() && tok.Length() >= 20
		}
		if found != (dist == WindowSize) {
			t.Fatalf("repeat at distance %d: found = %v", dist, found)
		}
	}
}

// TestHWMatcherEqualsReferenceLarge runs the shipped geometries (and the
// degenerate one-way table) over inputs long enough to wrap every ring
// many times and to reach the full window.
func TestHWMatcherEqualsReferenceLarge(t *testing.T) {
	inputs := testInputs(t)
	for _, k := range []corpus.Kind{corpus.Text, corpus.Binary, corpus.Columnar} {
		inputs[k.String()] = corpus.Generate(k, 256<<10, 12)
	}
	for _, p := range []HWParams{P9HWParams(), Z15HWParams(), {InputWidth: 4, Banks: 2, Ways: 1, HashBits: 4}} {
		pr := newHWPair(p)
		for name, src := range inputs {
			if err := pr.check(nil, src); err != nil {
				t.Fatalf("%+v input %q: %v", p, name, err)
			}
			if len(src) > WindowSize {
				if err := pr.check(src[:WindowSize], src[WindowSize:]); err != nil {
					t.Fatalf("%+v input %q with history: %v", p, name, err)
				}
			}
		}
	}
}

// TestHWMatcherEpochWrap drives the entry numbering to the end of its 32
// bits. An operation that ends exactly on the last value runs without a
// wipe; one that would end a byte past it — its base still fits, its length
// alone crosses — and one whose base already does not fit must wipe and
// restart the numbering. What the wipe protects is 4 GiB away: the entries
// the earlier operation left near the top would read as current once the
// numbering climbs back to their values, so the test rewinds it there in
// one step and runs other data over the same range.
func TestHWMatcherEpochWrap(t *testing.T) {
	in := diffInputs()
	ladder, text := in["ladder"], in["text"]
	const top = 1<<32 - 1
	gap := uint32(WindowSize + 1)
	for _, tc := range []struct {
		name       string
		history, n int    // the second operation: short, so it overwrites next to nothing
		over       uint32 // by how much it overshoots the top
		wipe       bool
	}{
		{"ends on the last value", 0, 5, 0, false},
		{"length alone crosses", 0, 5, 1, true},
		{"length alone crosses, with history", 300, 5, 1, true},
		{"base does not fit", 0, 5, 5 + 9, true},
	} {
		pr := newHWPair(HWParams{InputWidth: 8, Banks: 4, Ways: 3, HashBits: 4})
		second := uint32(tc.history + tc.n)
		pr.hw.end = top - (gap + uint32(len(ladder))) - (gap + second) + tc.over
		firstBase := pr.hw.end + gap
		if err := pr.check(nil, ladder); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := pr.check(text[:tc.history], text[tc.history:tc.history+tc.n]); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.wipe {
			if pr.hw.end != top {
				t.Fatalf("%s: end = %d, want %d", tc.name, pr.hw.end, uint32(top))
			}
			continue
		}
		if pr.hw.end != gap+second {
			t.Fatalf("%s: end = %d, want %d: the numbering did not restart", tc.name, pr.hw.end, gap+second)
		}
		for _, v := range pr.hw.head {
			if v >= pr.hw.end {
				t.Fatalf("%s: entry %d survives at or above end %d", tc.name, v, pr.hw.end)
			}
		}
		pr.hw.end = firstBase - gap
		if err := pr.check(text[:40], text[40:]); err != nil {
			t.Fatalf("%s, back at the first operation's base: %v", tc.name, err)
		}
	}
}

// TestHWMatcherLentAcrossGeometries: one matcher, built by its first Reset
// and re-shaped before every operation, against a reference per geometry —
// what an engine's work area does when the free list hands it to a device
// of the other kind. Whatever a geometry left in head, within the current
// length or past it, reads as out of window to the next; and a wipe under a
// small geometry also clears what a larger one left past the length, which
// would otherwise read as current once the numbering climbed back to it.
func TestHWMatcherLentAcrossGeometries(t *testing.T) {
	geoms := []HWParams{
		Z15HWParams(), P9HWParams(),
		{InputWidth: 4, Banks: 2, Ways: 3, HashBits: 3, Lazy: true, MaxDist: 256},
		{InputWidth: 5, Banks: 64, Ways: 1, HashBits: 7},
		{InputWidth: 8, Banks: 128, Ways: 16, HashBits: 11, Lazy: true}, // larger than any before it: head is reallocated
	}
	lent := new(HWMatcher)
	pairs := make([]*hwPair, len(geoms))
	for i, p := range geoms {
		lent.Reset(p)
		pairs[i] = &hwPair{hw: lent, ref: newRefHWMatcher(lent.Params())}
	}
	inputs := diffInputs()
	text := corpus.Generate(corpus.Text, 80<<10, 12)
	inputs["window"] = text
	k, before := 0, lent.Params()
	for round := 0; round < 3; round++ {
		for name, src := range inputs {
			for _, split := range []int{0, len(src) / 2} {
				pr := pairs[k%len(pairs)]
				k += 1 + round // a different geometry follows each one every round
				lent.Reset(pr.ref.p)
				if err := pr.check(src[:split], src[split:]); err != nil {
					t.Fatalf("%+v after %+v, input %q split %d: %v", lent.Params(), before, name, split, err)
				}
				before = lent.Params()
			}
		}
	}
	if want := 4 * 128 << 11; 4*cap(lent.head) != want {
		t.Fatalf("head holds %d bytes, want the largest geometry's %d", 4*cap(lent.head), want)
	}

	// A wipe under the smallest geometry, then the numbering rewound to
	// where the z15 operation before it stored its entries.
	small, z15 := pairs[2], pairs[0]
	lent.Reset(z15.ref.p)
	lent.end = 1<<32 - 1 - uint32(WindowSize+1+len(text)) - 300 // the next operation's 257 + 100 do not fit
	z15Base := lent.end + uint32(WindowSize+1)
	if err := z15.check(nil, text); err != nil {
		t.Fatal(err)
	}
	lent.Reset(small.ref.p)
	if err := small.check(nil, text[:100]); err != nil {
		t.Fatal(err)
	}
	if lent.end != 256+1+100 {
		t.Fatalf("end = %d: the numbering did not restart", lent.end)
	}
	for i, v := range lent.head[:cap(lent.head)] {
		if v >= lent.end {
			t.Fatalf("entry %d (length %d) holds %d, at or above end %d", i, len(lent.head), v, lent.end)
		}
	}
	lent.Reset(z15.ref.p)
	lent.end = z15Base - uint32(WindowSize+1)
	if err := z15.check(text[:40], inputs["binary"]); err != nil {
		t.Fatalf("back at the z15 operation's base: %v", err)
	}
}

// TestHWMatcherMaxInput checks the input limit's arithmetic on the base
// alone, without a 4 GiB buffer: the longest source behind the longest
// history ends exactly on the last 32-bit value on an empty table, forces
// a wipe on a used one, and a byte more is refused.
func TestHWMatcherMaxInput(t *testing.T) {
	m := NewHWMatcher(P9HWParams())
	if base := m.rebase(MaxInput + WindowSize); base != WindowSize+1 || m.end != 1<<32-1 {
		t.Fatalf("on an empty table: base %d, end %d", base, m.end)
	}
	m.head[5] = 77
	if base := m.rebase(MaxInput + WindowSize); base != WindowSize+1 || m.end != 1<<32-1 || m.head[5] != 0 {
		t.Fatalf("on a full numbering: base %d, end %d, entry %d: no wipe", base, m.end, m.head[5])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an operation one byte over MaxInput + WindowSize was accepted")
		}
	}()
	m.rebase(MaxInput + WindowSize + 1)
}

// TestHWMatcherFootprint holds what a new matcher allocates to one 32-bit
// head per set, one 16-bit link per ring position and the per-bank beat
// scratch — the size of the history, not of sets x ways. Every slice the
// struct has is counted, whatever it is called.
func TestHWMatcherFootprint(t *testing.T) {
	for _, p := range []HWParams{P9HWParams(), Z15HWParams()} {
		m := reflect.ValueOf(NewHWMatcher(p)).Elem()
		got := 0
		for i := 0; i < m.NumField(); i++ {
			if f := m.Field(i); f.Kind() == reflect.Slice {
				got += f.Len() * int(f.Type().Elem().Size())
			}
		}
		want := 4*p.Banks<<p.HashBits + 2*2*WindowSize + 8*p.Banks
		if got > want {
			t.Errorf("%+v: the matcher's slices hold %d bytes, more than %d", p, got, want)
		}
	}
}

func FuzzHWMatcherEqualsReference(f *testing.F) {
	f.Add([]byte("abcabcabcabcabc"), uint16(0), uint16(0))
	f.Add([]byte("abcdefgh-0123-abcdefgh"), uint16(0x1ff), uint16(9))
	f.Add(bytes.Repeat([]byte{0}, 600), uint16(0x2a3), uint16(300))
	f.Add([]byte("ab"), uint16(7), uint16(1))
	for _, row := range diffRows() {
		for _, op := range row.ops {
			f.Add(append(append([]byte{}, op.history...), op.src...), row.cfg, uint16(len(op.history)))
		}
	}
	pairs := map[HWParams]*hwPair{}
	lent := new(HWMatcher) // re-shaped for every execution, as an engine's work area is
	f.Fuzz(func(t *testing.T, data []byte, cfg, split uint16) {
		p := fuzzParams(cfg)
		src := data
		if cfg>>10&1 == 1 {
			// Fuzz inputs are short; repeat one so rings wrap and matches
			// reach MaxMatch.
			src = bytes.Repeat(data, 8)
		}
		pr := pairs[p]
		if pr == nil {
			pr = newHWPair(p)
			pairs[p] = pr
		}
		at := 0
		if len(src) > 0 {
			at = int(split) % (len(src) + 1)
		}
		if err := pr.check(src[:at], src[at:]); err != nil {
			t.Fatalf("%+v split %d: %v", p, at, err)
		}
		lent.Reset(p)
		if err := (&hwPair{hw: lent, ref: pr.ref}).check(src[:at], src[at:]); err != nil {
			t.Fatalf("%+v split %d, on the matcher the last geometry used: %v", p, at, err)
		}
	})
}

func TestNewHWMatcherRejectsNonPowerOfTwoBanks(t *testing.T) {
	for _, banks := range []int{3, 6, 12, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Banks = %d accepted", banks)
				}
			}()
			NewHWMatcher(HWParams{Banks: banks})
		}()
	}
	for banks := 1; banks <= 64; banks *= 2 {
		NewHWMatcher(HWParams{Banks: banks, HashBits: 3})
	}
}

func TestMatchLenEdges(t *testing.T) {
	lens := []int{257, 258}
	for l := 0; l <= 17; l++ {
		lens = append(lens, l)
	}
	const b = 300
	for _, maxLen := range lens {
		// src ends exactly at b+maxLen: a read past the limit is a panic.
		src := make([]byte, b+maxLen)
		for i := range src {
			src[i] = byte(i % 7)
		}
		copy(src[b:], src[9:9+maxLen])
		if got := matchLen(src, 9, b, maxLen); got != maxLen {
			t.Fatalf("maxLen %d, full match: got %d", maxLen, got)
		}
		for off := 0; off <= 15 && off < maxLen; off++ {
			src[b+off] ^= 0x80
			want := refMatchLen(src, 9, b, maxLen)
			if want != off {
				t.Fatalf("oracle: mismatch at %d read as %d", off, want)
			}
			if got := matchLen(src, 9, b, maxLen); got != want {
				t.Fatalf("maxLen %d, mismatch at %d: got %d", maxLen, off, got)
			}
			src[b+off] ^= 0x80
		}
		// Overlapping candidate (distance 1), as a run produces.
		run := bytes.Repeat([]byte{5}, maxLen+1)
		if got := matchLen(run, 0, 1, maxLen); got != maxLen {
			t.Fatalf("maxLen %d, distance-1 run: got %d", maxLen, got)
		}
	}
}

func TestHash4EqualsReference(t *testing.T) {
	src := corpus.Generate(corpus.Binary, 4096, 12)
	for i := 0; i+4 <= len(src); i++ {
		if hash4(src, i) != refHash4(src, i) {
			t.Fatalf("hash4 differs at %d", i)
		}
	}
}

// TestSoftMatcherEqualsReference holds SoftMatcher's tokens (they feed
// SoftwareGzip) to the byte-loop matchLen/hash4 oracle on the codec_mix
// payload classes.
func TestSoftMatcherEqualsReference(t *testing.T) {
	for _, k := range []corpus.Kind{corpus.Text, corpus.JSONLogs, corpus.Columnar, corpus.Binary} {
		src := corpus.Generate(k, 64<<10, 12)
		for _, level := range []int{1, 6, 9} {
			got := NewSoftMatcher(LevelParams(level)).Tokenize(nil, src)
			want := newRefSoftMatcher(LevelParams(level)).Tokenize(nil, src)
			if err := diffTokens(got, want); err != nil {
				t.Fatalf("%s level %d: %v", k, level, err)
			}
		}
	}
}

var benchSink int

func BenchmarkHWMatcherTokenize(b *testing.B) {
	for _, mc := range []struct {
		name string
		p    HWParams
	}{{"p9", P9HWParams()}, {"z15", Z15HWParams()}} {
		// Small operations, one per slice of a 1 MiB buffer: each meets sets
		// no recent operation touched, which the whole-buffer runs below
		// (warm after the first few KiB) cannot show.
		for _, size := range []int{256, 1 << 10, 4 << 10} {
			b.Run(fmt.Sprintf("%s/text-%dB", mc.name, size), func(b *testing.B) {
				src := corpus.Generate(corpus.Text, 1<<20, 12)
				m := NewHWMatcher(mc.p)
				var tokens []Token
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for off := 0; off < len(src); off += size {
						tokens, _ = m.Tokenize(tokens[:0], src[off:off+size])
					}
				}
				benchSink = len(tokens)
			})
		}
		// Every kind bulk_oneshot runs: candidates per probe range from 1.0
		// on random to 15.8 on dna, and a candidate is a step along a chain.
		for _, k := range []corpus.Kind{corpus.Text, corpus.HTML, corpus.JSONLogs, corpus.Source,
			corpus.Columnar, corpus.DNA, corpus.Binary, corpus.Random} {
			b.Run(mc.name+"/"+k.String(), func(b *testing.B) {
				src := corpus.Generate(k, 1<<20, 12)
				m := NewHWMatcher(mc.p)
				tokens, _ := m.Tokenize(nil, src)
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tokens, _ = m.Tokenize(tokens[:0], src)
				}
				benchSink = len(tokens)
			})
		}
	}
}

// BenchmarkHWMatcherTokenizeCold is small_into's shape — a z15 node's
// matchers taken in turn, one 1 KiB operation each — with eight of them, so
// a matcher has seven others' working sets between two operations of its
// own and finds whatever does not fit in cache beside them gone.
func BenchmarkHWMatcherTokenizeCold(b *testing.B) {
	const size = 1 << 10
	src := corpus.Generate(corpus.Text, 1<<20, 12)
	ms := make([]*HWMatcher, 8)
	for i := range ms {
		ms[i] = NewHWMatcher(Z15HWParams())
	}
	var tokens []Token
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(src); off += size {
			tokens, _ = ms[off/size%len(ms)].Tokenize(tokens[:0], src[off:off+size])
		}
	}
	benchSink = len(tokens)
}

func BenchmarkMatchLen(b *testing.B) {
	for _, n := range []int{3, 8, 20, 64, MaxMatch} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			// The candidate agrees for n bytes, then differs.
			src := bytes.Repeat([]byte("0123456789abcdef"), 64)
			const cur = 512
			if n < MaxMatch {
				src[cur+n] ^= 1
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += matchLen(src, 0, cur, MaxMatch)
			}
		})
	}
}
