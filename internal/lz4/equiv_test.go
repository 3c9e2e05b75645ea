package lz4

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nxzip/internal/corpus"
)

// equivSizes are the plaintext lengths the differential tests cover: every
// length around the encoder's 13-byte cut-over between a literals-only
// block and the match finder, a page, codec_mix's payload and one past the
// 64 KiB offset reach.
var equivSizes = func() []int {
	s := make([]int, 0, 17)
	for n := 0; n <= 13; n++ {
		s = append(s, n)
	}
	return append(s, 4<<10, 64<<10, 300<<10)
}()

// errText is how two decode errors are compared: the class a caller tests
// with errors.Is, and the text.
func errText(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrTooLarge):
		return "too-large: " + err.Error()
	case errors.Is(err, ErrCorrupt):
		return "corrupt: " + err.Error()
	}
	return "other: " + err.Error()
}

// checkCompress requires Compress to produce the reference encoder's bytes.
func checkCompress(t testing.TB, name string, src []byte) []byte {
	t.Helper()
	want := refCompress(src)
	got := Compress(src)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: %d compressed bytes, reference %d, first difference at byte %d", name, len(got), len(want), i)
	}
	return want
}

// checkDecompress requires Decompress and refDecompress to agree on blk
// under maxOut: equal bytes, or an equal error class and text. So must
// DecompressInto for every shape of dst: nil, half, exactly and more than
// the reference's output (or the budget, when that fails). Fence bytes sit
// past cap(dst) and, in a dst larger than the budget, past the budget; the
// decoder may write neither. An output that fits dst is in dst.
func checkDecompress(t testing.TB, name string, blk []byte, maxOut int) {
	t.Helper()
	want, wantErr := refDecompress(blk, maxOut)
	got, gotErr := Decompress(blk, maxOut)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the reference's %d", name, len(got), len(want))
	}
	budget := maxOut
	if budget <= 0 {
		budget = DefaultMaxOutput
	}
	size := len(want)
	if wantErr != nil {
		size = min(budget, 4*len(blk)+64)
	}
	const fence = 0xA5
	for _, c := range []int{size / 2, size, size + 4096} {
		buf := bytes.Repeat([]byte{fence}, c+32)
		got, gotErr := DecompressInto(buf[:0:c], blk, maxOut)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s/cap=%d: error %v, reference %v", name, c, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s/cap=%d: %d bytes differ from the reference's %d", name, c, len(got), len(want))
		}
		for i := min(c, budget); i < len(buf); i++ {
			if buf[i] != fence {
				t.Fatalf("%s/cap=%d: byte %d written, past the budget of %d or the capacity", name, c, i, maxOut)
			}
		}
		if len(want) > 0 && len(want) <= c && &got[0] != &buf[0] {
			t.Fatalf("%s/cap=%d: %d bytes fit dst but were decoded elsewhere", name, c, len(want))
		}
	}
}

// budgets are the output bounds a block of a plaintext of n bytes is
// decoded under: the default, one short, exact and one over.
func budgets(n int) []int { return []int{0, n - 1, n, n + 1} }

func TestCompressEqualsReference(t *testing.T) {
	for _, k := range corpus.Kinds() {
		for _, n := range equivSizes {
			checkCompress(t, fmt.Sprintf("%s/%d", k, n), corpus.Generate(k, n, int64(n)+1))
		}
	}
	// Shapes the corpus does not reach: runs that chain matches back to
	// back, a repeat exactly at the 65535-byte reach and one byte past it.
	long := bytes.Repeat([]byte{0x42}, 70000)
	checkCompress(t, "run", long)
	for _, gap := range []int{maxOffset - 8, maxOffset - 7, maxOffset - 6} {
		src := corpus.Generate(corpus.Random, gap+64, 7)
		copy(src[gap:], src[:40])
		checkCompress(t, fmt.Sprintf("reach%d", gap), src)
	}
}

// TestCompressWrapsTheTable numbers a block across the end of 32 bits: the
// table must be wiped and the numbering restarted. Before the wrap the
// table holds an entry for every position of the block as it will be
// numbered after it, so an entry the wipe missed is a candidate the
// reference never saw — one in the middle of a match, where the
// reference inserts nothing — and the blocks part.
func TestCompressWrapsTheTable(t *testing.T) {
	src := corpus.Generate(corpus.Text, 64<<10, 9)
	tab := tables.Get()
	for p := 0; p+4 <= len(src); p++ {
		tab.slot[hash4(load32(src, p))] = maxOffset + 1 + uint32(p)
	}
	tab.end = 1<<32 - 1 - (maxOffset + 1) - uint32(len(src)) + 1
	tables.Put(tab)
	checkCompress(t, "wrap", src)
	if tab.end != maxOffset+1+uint32(len(src)) {
		t.Fatalf("end = %d after the wrap, want %d", tab.end, maxOffset+1+len(src))
	}
	// The next block starts above the wrapped one, table as it was left.
	checkCompress(t, "after", src)
}

func TestDecompressEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range corpus.Kinds() {
		for _, n := range equivSizes {
			name := fmt.Sprintf("%s/%d", k, n)
			blk := refCompress(corpus.Generate(k, n, int64(n)+1))
			for _, maxOut := range budgets(n) {
				checkDecompress(t, fmt.Sprintf("%s/max=%d", name, maxOut), blk, maxOut)
			}
			for cut := 0; cut < len(blk); cut += len(blk)/8 + 1 {
				checkDecompress(t, fmt.Sprintf("%s/cut%d", name, cut), blk[:cut], n)
			}
			// Single-bit flips where they land, each under the exact budget
			// and a roomy one: 200 a block up to a page, fewer past it,
			// where each decode is of the whole block.
			flips := 200
			if n > 4<<10 {
				flips = 16
			}
			for i := 0; i < flips; i++ {
				bit := rng.Intn(8 * len(blk))
				bad := bytes.Clone(blk)
				bad[bit/8] ^= 1 << (bit % 8)
				checkDecompress(t, fmt.Sprintf("%s/flip%d", name, bit), bad, n)
				checkDecompress(t, fmt.Sprintf("%s/flip%d/roomy", name, bit), bad, 2*n+64)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		garbage := make([]byte, rng.Intn(200)+1)
		rng.Read(garbage)
		checkDecompress(t, fmt.Sprintf("garbage%d", i), garbage, 1+rng.Intn(1<<12))
	}
}

// FuzzDecompressEqualsReference holds the decoder to the reference on any
// block and budget and, with the same bytes as a plaintext, the encoder:
// equal blocks, and the decoder takes them back.
func FuzzDecompressEqualsReference(f *testing.F) {
	for _, plain := range [][]byte{
		{}, []byte("1234567890123"), bytes.Repeat([]byte("ABCD"), 100), make([]byte, 300),
		corpus.Generate(corpus.Text, 4096, 3), corpus.Generate(corpus.Columnar, 6000, 4),
		corpus.Generate(corpus.Binary, 2000, 5),
	} {
		blk := refCompress(plain)
		f.Add(blk, uint32(0))
		f.Add(blk, uint32(len(plain)))
		f.Add(blk[:len(blk)/2], uint32(len(plain)))
		bad := bytes.Clone(blk)
		bad[len(bad)/2] ^= 0x10
		f.Add(bad, uint32(len(plain)+1))
	}
	f.Add([]byte{0xF0, 0xff, 0xff, 0x00}, uint32(0))
	f.Add([]byte{0x1F, 'a', 0x01, 0x00, 0xff, 0xff, 0x10}, uint32(1<<10))
	f.Fuzz(func(t *testing.T, blk []byte, maxOut uint32) {
		// 0 is the default budget; anything else stays below a few MiB so
		// a run-length bomb costs the fuzzer little.
		checkDecompress(t, "fuzz", blk, int(maxOut%(4<<20)))
		if len(blk) > 1<<16 {
			blk = blk[:1<<16]
		}
		comp := checkCompress(t, "fuzz/encode", blk)
		if got, err := Decompress(comp, len(blk)); err != nil || !bytes.Equal(got, blk) {
			t.Fatalf("round trip under an exact budget: %d of %d bytes, err %v", len(got), len(blk), err)
		}
	})
}
