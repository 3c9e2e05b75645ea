package huffman

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nxzip/internal/bitio"
)

func TestBuildLengthsEmpty(t *testing.T) {
	lengths, err := BuildLengths(make([]int64, 10), 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lengths {
		if l != 0 {
			t.Fatal("zero-frequency symbol got a code")
		}
	}
}

func TestBuildLengthsSingle(t *testing.T) {
	freqs := make([]int64, 5)
	freqs[3] = 100
	lengths, err := BuildLengths(freqs, 15)
	if err != nil {
		t.Fatal(err)
	}
	if lengths[3] != 1 {
		t.Fatalf("single symbol got length %d, want 1", lengths[3])
	}
}

func TestBuildLengthsTwo(t *testing.T) {
	lengths, err := BuildLengths([]int64{7, 0, 3}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if lengths[0] != 1 || lengths[2] != 1 || lengths[1] != 0 {
		t.Fatalf("lengths = %v", lengths)
	}
}

func TestBuildLengthsClassic(t *testing.T) {
	// Fibonacci-ish frequencies give a maximally skewed tree.
	freqs := []int64{1, 1, 2, 3, 5, 8, 13, 21}
	lengths, err := BuildLengths(freqs, 15)
	if err != nil {
		t.Fatal(err)
	}
	if k := KraftSum(lengths, 15); k != 1<<15 {
		t.Fatalf("kraft = %d, want complete code", k)
	}
	// Most frequent symbol must have the shortest code.
	for i := 0; i < 7; i++ {
		if lengths[i] < lengths[i+1] {
			t.Fatalf("monotonicity violated: %v", lengths)
		}
	}
}

func TestBuildLengthsLimitRepair(t *testing.T) {
	// Exponential frequencies force an unconstrained depth > 7, so the
	// limiter must kick in.
	freqs := make([]int64, 20)
	f := int64(1)
	for i := range freqs {
		freqs[i] = f
		f *= 2
	}
	lengths, err := BuildLengths(freqs, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lengths {
		if l == 0 || l > 7 {
			t.Fatalf("symbol %d length %d out of [1,7]", i, l)
		}
	}
	if k := KraftSum(lengths, 7); k != 1<<7 {
		t.Fatalf("kraft = %d after repair, want %d", k, 1<<7)
	}
}

func TestBuildLengthsErrors(t *testing.T) {
	if _, err := BuildLengths([]int64{-1}, 15); err == nil {
		t.Fatal("negative frequency accepted")
	}
	if _, err := BuildLengths([]int64{1, 1, 1}, 1); err == nil {
		t.Fatal("3 symbols in 1 bit accepted")
	}
	if _, err := BuildLengths([]int64{1}, 0); err == nil {
		t.Fatal("maxBits=0 accepted")
	}
}

// TestOptimality compares the weighted length of the built code against a
// plain (unlimited) Huffman cost bound for cases the limit doesn't bind.
func TestOptimalityKraft(t *testing.T) {
	f := func(raw []uint16) bool {
		freqs := make([]int64, len(raw))
		live := 0
		for i, v := range raw {
			freqs[i] = int64(v)
			if v > 0 {
				live++
			}
		}
		if live > 1<<15 {
			return true
		}
		lengths, err := BuildLengths(freqs, 15)
		if err != nil {
			return false
		}
		// Validity: every live symbol has a code, Kraft holds.
		for i, fq := range freqs {
			if (fq > 0) != (lengths[i] > 0) {
				return false
			}
		}
		return KraftSum(lengths, 15) <= 1<<15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderCanonicalOrder(t *testing.T) {
	// lengths: a=2 b=1 c=3 d=3  => canonical codes b=0, a=10, c=110, d=111
	lengths := []uint8{2, 1, 3, 3}
	e, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		bits uint16 // unreversed canonical value
		n    uint8
	}{{0b10, 2}, {0b0, 1}, {0b110, 3}, {0b111, 3}}
	for sym, w := range want {
		got := e.Codes[sym]
		if got.Len != w.n {
			t.Fatalf("sym %d len = %d want %d", sym, got.Len, w.n)
		}
		if rev := reverse16(got.Bits, uint(got.Len)); rev != w.bits {
			t.Fatalf("sym %d code = %b want %b", sym, rev, w.bits)
		}
	}
}

// reverse16 returns the low n bits of v in reversed order.
func reverse16(v uint16, n uint) uint16 {
	var out uint16
	for i := uint(0); i < n; i++ {
		out = out<<1 | (v & 1)
		v >>= 1
	}
	return out
}

func TestEncoderOverSubscribed(t *testing.T) {
	if _, err := NewEncoder([]uint8{1, 1, 1}); err == nil {
		t.Fatal("over-subscribed code accepted")
	}
}

func TestEncoderTotalBits(t *testing.T) {
	e, err := NewEncoder([]uint8{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	got := e.TotalBits([]int64{10, 5, 0})
	if got != 10*1+5*2 {
		t.Fatalf("TotalBits = %d", got)
	}
}

func TestDecoderRejectsOverSubscribed(t *testing.T) {
	if _, err := NewDecoder([]uint8{1, 1, 1}, 9); err == nil {
		t.Fatal("over-subscribed accepted")
	}
}

func TestDecoderIncompleteCode(t *testing.T) {
	// Single symbol of length 2: half of code space unassigned.
	d, err := NewDecoder([]uint8{2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(nil)
	w.WriteBits(0b11, 2) // not a valid code (only 00 assigned)
	r := bitio.NewReader(w.Bytes())
	if _, err := d.Decode(r); err != ErrInvalidCode {
		t.Fatalf("got %v, want ErrInvalidCode", err)
	}
}

func roundTripSymbols(t *testing.T, lengths []uint8, primaryBits uint, symbols []int) {
	t.Helper()
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(lengths, primaryBits)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(nil)
	for _, s := range symbols {
		c := enc.Codes[s]
		if c.Len == 0 {
			t.Fatalf("symbol %d has no code", s)
		}
		w.WriteBits(uint64(c.Bits), uint(c.Len))
	}
	r := bitio.NewReader(w.Bytes())
	for i, want := range symbols {
		got, err := dec.Decode(r)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("decode %d: got %d want %d", i, got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	freqs := make([]int64, 286) // DEFLATE litlen alphabet size
	rng := rand.New(rand.NewSource(7))
	for i := range freqs {
		freqs[i] = int64(rng.Intn(1000))
	}
	freqs[256] = 1 // end-of-block always present
	lengths, err := BuildLengths(freqs, 15)
	if err != nil {
		t.Fatal(err)
	}
	var symbols []int
	for i, f := range freqs {
		if f > 0 {
			symbols = append(symbols, i)
		}
	}
	for i := 0; i < 2000; i++ {
		symbols = append(symbols, symbols[rng.Intn(len(symbols))])
	}
	for _, pb := range []uint{1, 6, 9, 15} {
		roundTripSymbols(t, lengths, pb, symbols)
	}
}

func TestRoundTripPropertyRandomCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(60) + 2
		freqs := make([]int64, n)
		for i := range freqs {
			freqs[i] = int64(rng.Intn(50))
		}
		live := 0
		for _, f := range freqs {
			if f > 0 {
				live++
			}
		}
		if live == 0 {
			freqs[0] = 1
			live = 1
		}
		maxBits := rng.Intn(10) + 6 // 6..15
		lengths, err := BuildLengths(freqs, maxBits)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var symbols []int
		for i, f := range freqs {
			if f > 0 {
				for j := int64(0); j < f; j++ {
					symbols = append(symbols, i)
				}
			}
		}
		rng.Shuffle(len(symbols), func(i, j int) { symbols[i], symbols[j] = symbols[j], symbols[i] })
		roundTripSymbols(t, lengths, 9, symbols)
	}
}

func TestPrefixFreeProperty(t *testing.T) {
	// Canonical codes from valid lengths must be prefix-free: verify by
	// pairwise prefix comparison on a moderate alphabet.
	freqs := make([]int64, 30)
	rng := rand.New(rand.NewSource(3))
	for i := range freqs {
		freqs[i] = int64(rng.Intn(100) + 1)
	}
	lengths, err := BuildLengths(freqs, 9)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	type cv struct {
		code uint16 // canonical (unreversed)
		n    uint8
	}
	var codes []cv
	for sym, c := range enc.Codes {
		if c.Len == 0 {
			continue
		}
		codes = append(codes, cv{reverse16(c.Bits, uint(c.Len)), enc.Lengths[sym]})
	}
	for i := range codes {
		for j := range codes {
			if i == j {
				continue
			}
			a, b := codes[i], codes[j]
			if a.n > b.n {
				continue
			}
			// a is a prefix of b if b's top a.n bits equal a.code
			if uint16(b.code>>(b.n-a.n)) == a.code {
				t.Fatalf("code %d is prefix of code %d", i, j)
			}
		}
	}
}

func TestDecoderMetadata(t *testing.T) {
	d, err := NewDecoder([]uint8{3, 3, 2, 3, 3, 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxLen() != 3 || d.NumSymbols() != 6 {
		t.Fatalf("MaxLen=%d NumSymbols=%d", d.MaxLen(), d.NumSymbols())
	}
}

func BenchmarkBuildLengths286(b *testing.B) {
	freqs := make([]int64, 286)
	rng := rand.New(rand.NewSource(1))
	for i := range freqs {
		freqs[i] = int64(rng.Intn(10000))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildLengths(freqs, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	freqs := make([]int64, 286)
	rng := rand.New(rand.NewSource(1))
	for i := range freqs {
		freqs[i] = int64(rng.Intn(10000) + 1)
	}
	lengths, _ := BuildLengths(freqs, 15)
	enc, _ := NewEncoder(lengths)
	dec, _ := NewDecoder(lengths, 9)
	w := bitio.NewWriter(nil)
	const nsym = 4096
	for i := 0; i < nsym; i++ {
		c := enc.Codes[rng.Intn(286)]
		w.WriteBits(uint64(c.Bits), uint(c.Len))
	}
	data := w.Bytes()
	b.SetBytes(nsym)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitio.NewReader(data)
		for j := 0; j < nsym; j++ {
			if _, err := dec.Decode(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuildLengthsVaried builds a different table each iteration: a
// loop over one vector lets the branch predictor learn the heap's
// comparisons, which no real sequence of requests does.
func BenchmarkBuildLengthsVaried(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vectors := make([][]int64, 512)
	for v := range vectors {
		vectors[v] = make([]int64, 286)
		for i := range vectors[v] {
			vectors[v][i] = 1 + int64(rng.ExpFloat64()*60) // a floored histogram: no overflow repair
		}
	}
	var bld Builder
	lengths := make([]uint8, 286)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bld.Lengths(lengths, vectors[i%len(vectors)], 15); err != nil {
			b.Fatal(err)
		}
	}
}
