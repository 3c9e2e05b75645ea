package lz4

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/testutil"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	comp := Compress(src)
	got, err := Decompress(comp, 0)
	if err != nil {
		t.Fatalf("Decompress(%d-byte block): %v", len(comp), err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
	}
	return comp
}

func TestRoundTripEmpty(t *testing.T) {
	comp := roundTrip(t, nil)
	if len(comp) != 1 || comp[0] != 0 {
		t.Fatalf("empty block = %x, want 00", comp)
	}
}

func TestRoundTripSmall(t *testing.T) {
	for _, s := range []string{"a", "ab", "hello", "123456789012", "1234567890123"} {
		roundTrip(t, []byte(s))
	}
}

func TestRoundTripRepetitive(t *testing.T) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 512))
	comp := roundTrip(t, src)
	if len(comp) >= len(src)/4 {
		t.Fatalf("repetitive text compressed to %d of %d bytes — match finder broken", len(comp), len(src))
	}
}

func TestRoundTripRLE(t *testing.T) {
	// Overlap copies: a run of one byte decodes via offset 1.
	src := bytes.Repeat([]byte{0x42}, 1<<16)
	comp := roundTrip(t, src)
	if len(comp) > 300 {
		t.Fatalf("64 KiB run compressed to %d bytes — overlap matches not used", len(comp))
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20200530))
	for _, n := range []int{1, 13, 100, 4096, 1 << 17} {
		src := make([]byte, n)
		rng.Read(src)
		comp := roundTrip(t, src)
		if len(comp) > CompressBound(n) {
			t.Fatalf("n=%d: compressed %d exceeds bound %d", n, len(comp), CompressBound(n))
		}
	}
}

func TestRoundTripStructured(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for b.Len() < 1<<18 {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteByte(' ')
	}
	roundTrip(t, b.Bytes())
}

func TestLongLengthFields(t *testing.T) {
	// Literal and match lengths that need several 255-extension bytes.
	src := append(bytes.Repeat([]byte{7}, 5000), make([]byte, 5000)...)
	rng := rand.New(rand.NewSource(2))
	tail := make([]byte, 1000)
	rng.Read(tail)
	roundTrip(t, append(src, tail...))
}

func TestMaxOutputBudget(t *testing.T) {
	src := bytes.Repeat([]byte{9}, 1<<16)
	comp := Compress(src)
	if _, err := Decompress(comp, 100); !errors.Is(err, ErrTooLarge) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("budget overflow error = %v, want ErrTooLarge alone", err)
	}
	if out, err := Decompress(comp, 1<<16); err != nil || len(out) != 1<<16 {
		t.Fatalf("exact budget: %d bytes, err %v", len(out), err)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"truncated literal": {0x50, 'a', 'b'},
		"missing offset":    {0x11, 'a', 0x01},
		"zero offset":       {0x10, 'a', 0x00, 0x00},
		"huge offset":       {0x10, 'a', 0xff, 0xff},
		"dangling length":   {0xF0, 0xff, 0xff},
	}
	for name, blk := range cases {
		if _, err := Decompress(blk, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDecompressBitFlips(t *testing.T) {
	src := []byte(strings.Repeat("abcdefgh", 200))
	comp := Compress(src)
	for i := range comp {
		mut := append([]byte(nil), comp...)
		mut[i] ^= 0x80
		out, err := Decompress(mut, 1<<20)
		// Any outcome is fine except a panic or an unbounded buffer.
		if err == nil && len(out) > 1<<20 {
			t.Fatalf("flip at %d: %d bytes escaped the budget", i, len(out))
		}
	}
}

// TestAppendCompressAllocatesNothing is the encoder's allocation gate (make
// bench-alloc): into a dst with CompressBound room, once the table list
// holds a table, a block allocates nothing — no output, no table, no clear.
func TestAppendCompressAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, k := range []corpus.Kind{corpus.Text, corpus.Binary, corpus.Zeros} {
		src := corpus.Generate(k, 64<<10, 3)
		dst := make([]byte, 0, CompressBound(len(src)))
		AppendCompress(dst, src)
		if n := testing.AllocsPerRun(20, func() { AppendCompress(dst, src) }); n != 0 {
			t.Errorf("%s: %v allocations a block, want 0", k, n)
		}
	}
}
