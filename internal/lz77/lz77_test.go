package lz77

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nxzip/internal/testutil"
)

func TestTokenPacking(t *testing.T) {
	lit := Lit('x')
	if lit.IsMatch() || lit.Literal() != 'x' {
		t.Fatal("literal token broken")
	}
	for _, c := range []struct{ l, d int }{
		{MinMatch, 1}, {MaxMatch, WindowSize}, {100, 777}, {MinMatch, WindowSize}, {MaxMatch, 1},
	} {
		m := Match(c.l, c.d)
		if !m.IsMatch() || m.Length() != c.l || m.Dist() != c.d {
			t.Fatalf("match(%d,%d) round-trips as (%d,%d)", c.l, c.d, m.Length(), m.Dist())
		}
	}
}

func TestTokenPanicsOutOfRange(t *testing.T) {
	for _, f := range []func(){
		func() { Match(2, 1) },
		func() { Match(259, 1) },
		func() { Match(3, 0) },
		func() { Match(3, WindowSize+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic for invalid token")
				}
			}()
			f()
		}()
	}
}

func TestExpandOverlap(t *testing.T) {
	// "aaaa...": literal 'a' then match dist=1 replicates.
	tokens := []Token{Lit('a'), Match(10, 1)}
	out, err := Expand(nil, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != strings.Repeat("a", 11) {
		t.Fatalf("got %q", out)
	}
}

func TestExpandBadDistance(t *testing.T) {
	if _, err := Expand(nil, []Token{Lit('a'), Match(3, 5)}); err == nil {
		t.Fatal("distance past start accepted")
	}
}

// corpus inputs reused across matcher tests.
func testInputs(tb testing.TB) map[string][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	random := make([]byte, 50000)
	rng.Read(random)
	lowEntropy := make([]byte, 50000)
	for i := range lowEntropy {
		lowEntropy[i] = byte(rng.Intn(4))
	}
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 1200)
	// Mutate the text slightly so matches are long but not trivial.
	for i := 0; i < 400; i++ {
		text[rng.Intn(len(text))] = byte('a' + rng.Intn(26))
	}
	return map[string][]byte{
		"empty":      {},
		"one":        []byte("x"),
		"two":        []byte("xy"),
		"short":      []byte("abcabcabc"),
		"zeros":      make([]byte, 10000),
		"random":     random,
		"lowentropy": lowEntropy,
		"text":       text,
		"longmatch":  bytes.Repeat([]byte("z"), 70000),
	}
}

func TestSoftMatcherCorrectness(t *testing.T) {
	for level := 1; level <= 9; level++ {
		m := NewSoftMatcher(LevelParams(level))
		for name, src := range testInputs(t) {
			tokens := m.Tokenize(nil, src)
			if err := Validate(tokens, src); err != nil {
				t.Fatalf("level %d input %q: %v", level, name, err)
			}
		}
	}
}

func TestSoftMatcherWindowBound(t *testing.T) {
	// Data whose only repeats are > 32KB apart must not produce matches
	// beyond the window.
	rng := rand.New(rand.NewSource(9))
	chunk := make([]byte, 40000)
	rng.Read(chunk)
	src := append(append([]byte{}, chunk...), chunk...)
	m := NewSoftMatcher(LevelParams(9))
	tokens := m.Tokenize(nil, src)
	for _, tok := range tokens {
		if tok.IsMatch() && tok.Dist() > WindowSize {
			t.Fatalf("match distance %d exceeds window", tok.Dist())
		}
	}
	if err := Validate(tokens, src); err != nil {
		t.Fatal(err)
	}
}

func TestSoftLevelsTradeRatioForEffort(t *testing.T) {
	src := testInputs(t)["text"]
	m1 := NewSoftMatcher(LevelParams(1))
	m9 := NewSoftMatcher(LevelParams(9))
	t1 := m1.Tokenize(nil, src)
	t9 := m9.Tokenize(nil, src)
	// Level 9 should produce a token stream at most as long as level 1
	// (more search → fewer, longer tokens).
	if len(t9) > len(t1) {
		t.Fatalf("level 9 emitted %d tokens, level 1 %d", len(t9), len(t1))
	}
}

func TestHWMatcherCorrectness(t *testing.T) {
	for _, p := range []HWParams{P9HWParams(), Z15HWParams(), {InputWidth: 4, Banks: 2, Ways: 1, HashBits: 4}} {
		m := NewHWMatcher(p)
		for name, src := range testInputs(t) {
			tokens, st := m.Tokenize(nil, src)
			if err := Validate(tokens, src); err != nil {
				t.Fatalf("params %+v input %q: %v", p, name, err)
			}
			if int(st.Literals+st.Matches) != len(tokens) {
				t.Fatalf("stats tokens %d != %d", st.Literals+st.Matches, len(tokens))
			}
			if len(src) > 0 && st.Cycles < st.Beats {
				t.Fatalf("cycles %d < beats %d", st.Cycles, st.Beats)
			}
		}
	}
}

func TestHWMatcherWindowBound(t *testing.T) {
	p := P9HWParams()
	p.MaxDist = 4096
	m := NewHWMatcher(p)
	src := testInputs(t)["text"]
	tokens, _ := m.Tokenize(nil, src)
	for _, tok := range tokens {
		if tok.IsMatch() && tok.Dist() > 4096 {
			t.Fatalf("distance %d exceeds configured MaxDist", tok.Dist())
		}
	}
	if err := Validate(tokens, src); err != nil {
		t.Fatal(err)
	}
}

func TestHWMatcherDeterministicCycles(t *testing.T) {
	m := NewHWMatcher(P9HWParams())
	src := testInputs(t)["text"]
	_, st1 := m.Tokenize(nil, src)
	_, st2 := m.Tokenize(nil, src)
	if st1 != st2 {
		t.Fatalf("nondeterministic stats: %+v vs %+v", st1, st2)
	}
}

func TestHWMatcherBeatsModel(t *testing.T) {
	m := NewHWMatcher(P9HWParams())
	src := make([]byte, 1600)
	_, st := m.Tokenize(nil, src)
	if st.Beats != 200 {
		t.Fatalf("beats = %d, want 200 for 1600B/8B", st.Beats)
	}
}

// TestHWRatioWorseThanSoft9ButClose captures the paper's central trade-off
// in token terms: the bounded hardware search finds fewer/shorter matches
// than zlib-9 but stays in the same regime on compressible data.
func TestHWRatioWorseThanSoft9ButClose(t *testing.T) {
	src := testInputs(t)["text"]
	hw := NewHWMatcher(P9HWParams())
	sw := NewSoftMatcher(LevelParams(9))
	ht, _ := hw.Tokenize(nil, src)
	stoks := sw.Tokenize(nil, src)
	hs, ss := Summarize(ht), Summarize(stoks)
	if hs.Matches == 0 {
		t.Fatal("hardware found no matches on repetitive text")
	}
	// Hardware should cover at least half the match bytes software covers.
	if 2*hs.MatchBytes < ss.MatchBytes {
		t.Fatalf("hw covers %d match bytes, sw %d — too far apart", hs.MatchBytes, ss.MatchBytes)
	}
	if hs.TotalTokens < ss.TotalTokens {
		t.Fatalf("hw emitted fewer tokens (%d) than sw-9 (%d): unexpected", hs.TotalTokens, ss.TotalTokens)
	}
}

func TestMatchersPropertyRoundTrip(t *testing.T) {
	soft := NewSoftMatcher(LevelParams(6))
	hw := NewHWMatcher(P9HWParams())
	f := func(src []byte) bool {
		st := soft.Tokenize(nil, src)
		if Validate(st, src) != nil {
			return false
		}
		ht, _ := hw.Tokenize(nil, src)
		return Validate(ht, src) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchersStructuredProperty(t *testing.T) {
	// Structured generator: random inputs rarely contain matches, so also
	// exercise repeat-heavy inputs built from a small dictionary.
	rng := rand.New(rand.NewSource(77))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", " ", "\n", "00000000"}
	soft := NewSoftMatcher(LevelParams(4))
	hw := NewHWMatcher(Z15HWParams())
	for trial := 0; trial < 60; trial++ {
		var sb bytes.Buffer
		n := rng.Intn(5000)
		for sb.Len() < n {
			sb.WriteString(words[rng.Intn(len(words))])
		}
		src := sb.Bytes()
		if err := Validate(soft.Tokenize(nil, src), src); err != nil {
			t.Fatalf("soft trial %d: %v", trial, err)
		}
		ht, _ := hw.Tokenize(nil, src)
		if err := Validate(ht, src); err != nil {
			t.Fatalf("hw trial %d: %v", trial, err)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]Token{Lit('a'), Match(5, 1), Lit('b'), Match(10, 2)})
	if s.Literals != 2 || s.Matches != 2 || s.MatchBytes != 15 || s.TotalTokens != 4 {
		t.Fatalf("summary = %+v", s)
	}
}

func BenchmarkSoftMatcherLevel6(b *testing.B) {
	src := testInputs(b)["text"]
	m := NewSoftMatcher(LevelParams(6))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		m.Tokenize(nil, src)
	}
}

func BenchmarkSoftMatcherLevel9(b *testing.B) {
	src := testInputs(b)["text"]
	m := NewSoftMatcher(LevelParams(9))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		m.Tokenize(nil, src)
	}
}

func BenchmarkHWMatcherP9(b *testing.B) {
	src := testInputs(b)["text"]
	m := NewHWMatcher(P9HWParams())
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		m.Tokenize(nil, src)
	}
}

// TestSoftMatcherTokenizeAllocatesOnce: a call grows dst once, to the
// worst case of a literal per byte, and a dst handed back in not at all.
// Twenty runs each, so the handful of objects the runtime allocates for
// itself around a collection round down to none.
func TestSoftMatcherTokenizeAllocatesOnce(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instruments allocations; gate runs in non-race builds")
	}
	for name, src := range testInputs(t) {
		m := NewSoftMatcher(LevelParams(6))
		tokens := m.Tokenize(nil, src) // sizes m.prev
		if n := testing.AllocsPerRun(20, func() { m.Tokenize(nil, src) }); n > 1 {
			t.Errorf("%s: Tokenize(nil, src) allocates %v times", name, n)
		}
		if n := testing.AllocsPerRun(20, func() { tokens = m.Tokenize(tokens[:0], src) }); n != 0 {
			t.Errorf("%s: Tokenize into its own result allocates %v times", name, n)
		}
	}
}
