package huffman

import (
	"math"
	"math/rand"
	"testing"

	"nxzip/internal/bitio"
)

// weightedLength computes sum(freq_i * len_i).
func weightedLength(freqs []int64, lengths []uint8) int64 {
	var total int64
	for i, f := range freqs {
		total += f * int64(lengths[i])
	}
	return total
}

// entropyBits computes the Shannon bound sum(-f log2(f/N)) for the
// message.
func entropyBits(freqs []int64) float64 {
	var n int64
	for _, f := range freqs {
		n += f
	}
	if n == 0 {
		return 0
	}
	var h float64
	for _, f := range freqs {
		if f == 0 {
			continue
		}
		p := float64(f) / float64(n)
		h += -float64(f) * math.Log2(p)
	}
	return h
}

// bruteForceOptimal finds the optimal prefix-code cost for tiny alphabets
// by exhaustive Huffman construction (which is optimal by definition —
// this re-derives it with a simple O(n^2) min-merge to cross-check the
// heap/tiebreak implementation).
func bruteForceOptimal(freqs []int64) int64 {
	var weights []int64
	for _, f := range freqs {
		if f > 0 {
			weights = append(weights, f)
		}
	}
	if len(weights) <= 1 {
		if len(weights) == 1 {
			return weights[0] // single symbol: 1 bit each
		}
		return 0
	}
	var cost int64
	for len(weights) > 1 {
		// find two smallest
		i1, i2 := 0, 1
		if weights[i2] < weights[i1] {
			i1, i2 = i2, i1
		}
		for j := 2; j < len(weights); j++ {
			if weights[j] < weights[i1] {
				i2 = i1
				i1 = j
			} else if weights[j] < weights[i2] {
				i2 = j
			}
		}
		merged := weights[i1] + weights[i2]
		cost += merged
		// remove i1, i2 (order-safe)
		if i1 > i2 {
			i1, i2 = i2, i1
		}
		weights = append(weights[:i2], weights[i2+1:]...)
		weights = append(weights[:i1], weights[i1+1:]...)
		weights = append(weights, merged)
	}
	return cost
}

// TestOptimalAgainstBruteForce: when the 15-bit limit does not bind, the
// built code's weighted length must equal the true Huffman optimum.
func TestOptimalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(24) + 2
		freqs := make([]int64, n)
		for i := range freqs {
			freqs[i] = int64(rng.Intn(100))
		}
		live := 0
		for _, f := range freqs {
			if f > 0 {
				live++
			}
		}
		if live < 2 {
			continue
		}
		lengths, err := BuildLengths(freqs, 15)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// With <= 25 similar-magnitude weights the natural depth stays
		// well under 15, so the limiter cannot have engaged unless the
		// weights are wildly skewed — skip those rare cases.
		maxLen := uint8(0)
		for _, l := range lengths {
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen >= 15 {
			continue
		}
		got := weightedLength(freqs, lengths)
		want := bruteForceOptimal(freqs)
		if got != want {
			t.Fatalf("trial %d: weighted length %d, optimal %d (freqs %v)", trial, got, want, freqs)
		}
	}
}

// TestEntropyBound: any prefix code costs at least the Shannon entropy,
// and an optimal Huffman code costs less than entropy + 1 bit/symbol.
func TestEntropyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200) + 2
		freqs := make([]int64, n)
		var total int64
		for i := range freqs {
			freqs[i] = int64(rng.Intn(1000))
			total += freqs[i]
		}
		if total == 0 {
			continue
		}
		lengths, err := BuildLengths(freqs, 15)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(weightedLength(freqs, lengths))
		h := entropyBits(freqs)
		if got < h-1e-6 {
			t.Fatalf("trial %d: code %f bits beats entropy %f", trial, got, h)
		}
		if got > h+float64(total)+1e-6 {
			t.Fatalf("trial %d: code %f bits exceeds entropy+1/symbol bound (%f + %d)", trial, got, h, total)
		}
	}
}

// TestLimitedCodeCloseToOptimal: even when the length limit binds hard,
// the repaired code must stay within a small factor of optimal.
func TestLimitedCodeCloseToOptimal(t *testing.T) {
	// Heavily skewed: powers of 4 force deep trees.
	freqs := make([]int64, 16)
	f := int64(1)
	for i := range freqs {
		freqs[i] = f
		f *= 4
	}
	limited, err := BuildLengths(freqs, 7) // forces repair
	if err != nil {
		t.Fatal(err)
	}
	free, err := BuildLengths(freqs, 32)
	if err != nil {
		t.Fatal(err)
	}
	lcost := weightedLength(freqs, limited)
	fcost := weightedLength(freqs, free)
	if lcost < fcost {
		t.Fatalf("limited code cheaper than unconstrained: %d < %d", lcost, fcost)
	}
	if float64(lcost) > 1.30*float64(fcost) {
		t.Fatalf("limited code %d more than 30%% above optimal %d", lcost, fcost)
	}
	for _, l := range limited {
		if l > 7 {
			t.Fatalf("limit violated: %d", l)
		}
	}
}

// TestDecoderEncoderTableAgreement: the decoder must accept exactly the
// codes the encoder assigns, for random valid length vectors.
func TestDecoderEncoderTableAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(100) + 2
		freqs := make([]int64, n)
		for i := range freqs {
			freqs[i] = int64(rng.Intn(50) + 1)
		}
		lengths, err := BuildLengths(freqs, 15)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := NewEncoder(lengths)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecoder(lengths, 9)
		if err != nil {
			t.Fatal(err)
		}
		if dec.NumSymbols() != n {
			t.Fatalf("decoder sees %d symbols, want %d", dec.NumSymbols(), n)
		}
		// Spot-check a handful of symbols end to end.
		for k := 0; k < 16; k++ {
			sym := rng.Intn(n)
			c := enc.Codes[sym]
			w := bitio.NewWriter(nil)
			w.WriteBits(uint64(c.Bits), uint(c.Len))
			r := bitio.NewReader(w.Bytes())
			got, err := dec.Decode(r)
			if err != nil {
				t.Fatalf("decode sym %d: %v", sym, err)
			}
			if got != sym || r.BitsConsumed() != int(c.Len) {
				t.Fatalf("decode got %d (%d bits) want %d (%d bits)", got, r.BitsConsumed(), sym, c.Len)
			}
		}
	}
}
