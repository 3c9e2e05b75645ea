package deflate

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"nxzip/internal/corpus"
)

// errClass folds an inflate error to the three outcomes callers act on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrTooLarge):
		return "too-large"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "other: " + err.Error()
}

// checkEqualsReference decodes src with the production decoder and with
// refInflate under the same options and requires equal bytes, equal
// consumed input and an equal error class. dstCap < 0 leaves Dst nil;
// otherwise Dst is an empty slice of that capacity inside a larger guard
// buffer whose bytes past the capacity must come back untouched, as must
// those inside it from 7 past the returned length on (the Dst scratch rule).
func checkEqualsReference(t testing.TB, name string, src []byte, maxOut, dstCap int) {
	t.Helper()
	want, wantUsed, wantErr := refDecompressTail(src, InflateOptions{MaxOutput: maxOut})

	opts := InflateOptions{MaxOutput: maxOut}
	var guard []byte
	if dstCap >= 0 {
		guard = bytes.Repeat([]byte{0xA5}, dstCap+64)
		opts.Dst = guard[:0:dstCap]
	}
	got, gotUsed, gotErr := DecompressTail(src, opts)
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from reference's %d", name, len(got), len(want))
	}
	if gotUsed != wantUsed {
		t.Fatalf("%s: consumed %d, reference %d", name, gotUsed, wantUsed)
	}
	if dstCap >= 0 {
		for i, b := range guard[dstCap:] {
			if b != 0xA5 {
				t.Fatalf("%s: wrote %d bytes past cap(Dst)", name, i+1)
			}
		}
		if gotErr == nil && len(want) > 0 && len(want) <= dstCap && &got[0] != &guard[0] {
			t.Fatalf("%s: output fits Dst but was not decoded into it", name)
		}
		for i := len(got) + 7; gotErr == nil && i < dstCap; i++ {
			if guard[i] != 0xA5 {
				t.Fatalf("%s: wrote %d bytes past the returned length", name, i+1-len(got))
			}
		}
	}
	// Decompress sits on the same core: same verdict, same bytes.
	one, oneErr := Decompress(src, InflateOptions{MaxOutput: maxOut})
	if errClass(oneErr) != errClass(wantErr) || !bytes.Equal(one, want) {
		t.Fatalf("%s: Decompress %d bytes/%v, reference %d bytes/%v", name, len(one), oneErr, len(want), wantErr)
	}
}

// equivStreams is every corpus kind (plus the degenerate inputs) encoded
// with fixed, dynamic and stored blocks, each followed by trailer bytes so
// consumed is not trivially len(src).
func equivStreams(t testing.TB) map[string][]byte {
	t.Helper()
	inputs := corpusInputs(t)
	for _, k := range corpus.Kinds() {
		inputs["corpus-"+k.String()] = corpus.Generate(k, 96<<10, 7)
	}
	out := make(map[string][]byte)
	for name, plain := range inputs {
		for _, mode := range []BlockMode{ModeFixed, ModeDynamic, ModeStored} {
			comp, err := Compress(plain, Options{Mode: mode, BlockSize: 24 << 10})
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/mode%d", name, mode)] = append(comp, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5)
		}
	}
	return out
}

func TestInflateEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	streams := equivStreams(t)
	names := make([]string, 0, len(streams))
	for name := range streams {
		names = append(names, name)
	}
	sort.Strings(names) // the damage below must land on the same bits every run
	for _, name := range names {
		src := streams[name]
		plain, _, err := refDecompressTail(src, InflateOptions{})
		if err != nil {
			t.Fatalf("%s: reference cannot decode its own corpus: %v", name, err)
		}
		n := len(plain)
		for _, maxOut := range []int{n - 1, n, n + 1} { // <= 0 is the 1 GiB default
			for _, dstCap := range []int{-1, n, n + 4096} {
				checkEqualsReference(t, fmt.Sprintf("%s/max=%d/cap=%d", name, maxOut, dstCap), src, maxOut, dstCap)
			}
		}
		// Damage: a flipped bit and a truncation, wherever they land, must
		// get the reference's verdict.
		for trial := 0; trial < 6 && len(src) > 12; trial++ {
			bad := bytes.Clone(src)
			bad[rng.Intn(len(bad)-9)] ^= 1 << uint(rng.Intn(8))
			checkEqualsReference(t, fmt.Sprintf("%s/flip%d", name, trial), bad, 1<<20, -1)
			cut := src[:rng.Intn(len(src)-9)]
			checkEqualsReference(t, fmt.Sprintf("%s/cut%d", name, trial), cut, 1<<20, n+300)
		}
	}
}

func FuzzInflateEqualsReference(f *testing.F) {
	for _, plain := range [][]byte{
		{}, []byte("a"), []byte("hello hello hello hello"), bytes.Repeat([]byte("xyz"), 500),
		corpus.Generate(corpus.Kinds()[0], 4096, 3),
	} {
		for _, mode := range []BlockMode{ModeFixed, ModeDynamic, ModeStored} {
			comp, err := Compress(plain, Options{Mode: mode})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(comp, uint16(0), uint16(0))
			f.Add(comp, uint16(len(plain)), uint16(len(plain)+1))
			if len(comp) > 4 {
				bad := bytes.Clone(comp)
				bad[len(bad)/2] ^= 0x10
				f.Add(bad, uint16(len(plain)+1), uint16(0))
			}
		}
	}
	// Streams whose literal codes reach 15 bits, which Compress never
	// makes from inputs this short.
	dht := longDHT()
	for _, row := range longCodeRows() {
		if row.trail == 0 {
			comp, plain := row.encode(f, dht)
			f.Add(comp, uint16(0), uint16(0))
			f.Add(comp, uint16(len(plain)), uint16(len(plain)+1))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, max16, cap16 uint16) {
		maxOut := int(max16) // 0 = the 1 GiB default, bounded below
		if maxOut == 0 {
			maxOut = 1 << 20
		}
		checkEqualsReference(t, "fuzz", data, maxOut, int(cap16)-1)
	})
}
