package x842

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"nxzip/internal/corpus"
)

// errClass folds a decode error to the outcomes callers act on. The
// reference reports a tripped budget as an untyped "output exceeds" error.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrTooLarge), strings.HasPrefix(err.Error(), "x842: output exceeds"):
		return "too-large"
	}
	return "other: " + err.Error()
}

// checkCompress requires Compress to produce the reference encoder's bytes
// and Decompress to take them back to src.
func checkCompress(t testing.TB, name string, src []byte) {
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
	back, err := Decompress(got, len(src))
	if err != nil || !bytes.Equal(back, src) {
		t.Fatalf("%s: round trip under an exact budget: %d of %d bytes, err %v", name, len(back), len(src), err)
	}
}

// checkDecompress requires Decompress and refDecompress to agree on src:
// equal bytes and an equal error class. So must DecompressInto into a dst
// half, exactly or more than the reference's output (or the budget, when
// that fails) — one shape a call, in turn — holding bytes other than
// zeros, which OP_ZEROS must store. Fence bytes sit past cap(dst) and, in a
// dst larger than the budget, past the budget; the decoder may write
// neither.
func checkDecompress(t testing.TB, name string, src []byte, maxOut int) {
	t.Helper()
	want, wantErr := refDecompress(src, maxOut)
	got, gotErr := Decompress(src, maxOut)
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from reference's %d", name, len(got), len(want))
	}
	budget := maxOut
	if budget <= 0 {
		budget = defaultMaxOutput
	}
	size := len(want)
	if wantErr != nil {
		size = min(budget, 4*len(src)+64)
	}
	const fence = 0xA5
	shapeTurn++
	for _, c := range []int{size / 2, size, size + 4096}[shapeTurn%3:][:1] {
		buf := bytes.Repeat([]byte{fence}, c+32)
		got, gotErr := DecompressInto(buf[:0:c], src, maxOut)
		if errClass(gotErr) != errClass(wantErr) {
			t.Fatalf("%s/cap=%d: error %v, reference %v", name, c, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s/cap=%d: %d bytes differ from reference's %d", name, c, len(got), len(want))
		}
		for i := min(c, budget); i < len(buf); i++ {
			if buf[i] != fence {
				t.Fatalf("%s/cap=%d: byte %d written, past the budget of %d or the capacity", name, c, i, maxOut)
			}
		}
	}
}

// shapeTurn picks checkDecompress's shape of dst.
var shapeTurn int

// fifos is the three fifos' geometry, for tests that walk all of them.
var fifos = []struct {
	log          uint
	chunk, fsize int
}{{1, 2, fifo2Size}, {2, 4, fifo4Size}, {3, 8, fifo8Size}}

// edgeInput places one chunk-sized marker value (0xFFFx words) twice, dist
// bytes apart, the first at byte offset first, in a filler of counting
// 16-bit words in which no aligned 2-, 4- or 8-byte value repeats — so the
// second occurrence's only possible reference is exactly dist back.
func edgeInput(chunk, first, dist int) []byte {
	n := (first+dist+chunk+7)&^7 + 24
	src := make([]byte, n)
	for i := 0; i < n/2; i++ {
		binary.BigEndian.PutUint16(src[2*i:], uint16(0x0100+i))
	}
	for _, at := range []int{first, first + dist} {
		for k := 0; k < chunk; k += 2 {
			binary.BigEndian.PutUint16(src[at+k:], uint16(0xFFF1+k/2))
		}
	}
	return src
}

// equivInputs is the encoder's differential corpus: every generator at
// sizes straddling the phrase and both window sizes, low-entropy
// alphabets that keep all three fifos full of duplicates, repeat runs
// around the 64-phrase op limit with zero phrases on either side, every
// tail length, and single recurrences placed on each fifo's window edge.
func equivInputs() map[string][]byte {
	in := make(map[string][]byte)
	for _, k := range corpus.Kinds() {
		for _, n := range []int{0, 1, 7, 8, 9, 511, 512, 513, 2047, 2048, 2049, 4096, 64 << 10, 1 << 20} {
			in[fmt.Sprintf("corpus/%s/%d", k, n)] = corpus.Generate(k, n, 11)
		}
	}
	rng := rand.New(rand.NewSource(842))
	for symbols := 1; symbols <= 4; symbols++ {
		for _, width := range []int{1, 2, 4, 8} {
			alphabet := make([]byte, symbols*width)
			rng.Read(alphabet)
			for _, n := range []int{600, 5003, 20000} {
				src := make([]byte, 0, n+width)
				for len(src) < n {
					s := rng.Intn(symbols) * width
					src = append(src, alphabet[s:s+width]...)
				}
				in[fmt.Sprintf("alphabet/%dx%dB/%d", symbols, width, n)] = src[:n]
			}
		}
	}
	phrase := func(b byte) []byte { return []byte{b, 1, 2, 3, 4, 5, 6, b} }
	zero := make([]byte, 8)
	for _, run := range []int{1, 2, 63, 64, 65, 66, 128, 129, 130} {
		rep := bytes.Repeat(phrase(0xAB), run)
		in[fmt.Sprintf("repeat/%d", run)] = rep
		in[fmt.Sprintf("repeat/%d/after-other", run)] = append(phrase(0x11), rep...)
		in[fmt.Sprintf("repeat/%d/zeros-around", run)] = bytes.Join([][]byte{zero, zero, rep, zero, phrase(0xAB), zero, zero, rep, {9, 9, 9}}, nil)
		in[fmt.Sprintf("repeat/%d/of-zeros", run)] = append(bytes.Repeat(zero, run), phrase(0x22)...)
		in[fmt.Sprintf("repeat/%d/zeros-after-data", run)] = append(phrase(0x33), bytes.Repeat(zero, run)...)
	}
	for tail := 1; tail <= 7; tail++ {
		text := corpus.Generate(corpus.Text, 64+tail, 5)
		in[fmt.Sprintf("tail/%d", tail)] = text
		in[fmt.Sprintf("tail/%d/alone", tail)] = text[:tail]
		in[fmt.Sprintf("tail/%d/after-zeros", tail)] = append(make([]byte, 16), text[:tail]...)
	}
	for _, f := range fifos {
		for _, d := range []int{-f.chunk, 0, 2, 4, 8} {
			if d%f.chunk != 0 {
				continue
			}
			for first := 0; first < 16; first += f.chunk {
				in[fmt.Sprintf("edge/fifo%d/dist%+d/at%d", f.chunk, d, first)] = edgeInput(f.chunk, first, f.fsize+d)
			}
		}
	}
	return in
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestCompressEqualsReference(t *testing.T) {
	in := equivInputs()
	for _, name := range sortedKeys(in) {
		checkCompress(t, name, in[name])
	}
	// The window-edge inputs must sit on the edge. A fifo's reach is
	// measured from the start of the phrase being encoded: a recurrence
	// exactly one fifo before it is referenced, one phrase further is not.
	for _, f := range fifos {
		inside := len(Compress(edgeInput(f.chunk, 0, f.fsize)))
		outside := len(Compress(edgeInput(f.chunk, 0, f.fsize+8)))
		if inside >= outside {
			t.Fatalf("fifo%d: %d bytes with the recurrence in the window, %d with it out", f.chunk, inside, outside)
		}
	}
}

func FuzzCompressEqualsReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("12345678"))
	f.Add(bytes.Repeat([]byte("ABCD"), 100))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}, 70))
	f.Add(edgeInput(2, 2, fifo2Size))
	f.Add(edgeInput(4, 4, fifo4Size+4))
	f.Add(corpus.Generate(corpus.DNA, 3000, 1))
	f.Add(corpus.Generate(corpus.Binary, 5000, 2))
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<16 {
			src = src[:1<<16]
		}
		checkCompress(t, "fuzz", src)
		// Stretched to a 2-symbol alphabet the same bytes keep every fifo
		// full of in-window duplicates.
		low := make([]byte, len(src))
		for i, b := range src {
			low[i] = b & 1
		}
		checkCompress(t, "fuzz/low", low)
	})
}

// hostileStream writes nOps random operations with the reference bit
// writer: templates, repeats, zeros, and OP_SHORT_DATA in mid-stream,
// after which every later index resolves against a total that is not
// phrase-aligned. It tracks the decoded length so that most indices
// resolve and streams run deep into all three fifos; about one operation
// in 150 is invalid (an index that does not resolve, a reserved opcode, a
// zero-length short data, a repeat with nothing before it). A third of
// the streams have no mid-stream short data and stay aligned. Most streams
// end in OP_END; the rest just stop.
func hostileStream(rng *rand.Rand, nOps int) []byte {
	w := &refMSBWriter{}
	total := 0
	shortData := []int{0, 3, 48}[rng.Intn(3)] // per 300 operations
	index := func(a uint8) uint64 {
		bits, chunk, fsize := uint(i2Bits), 2, fifo2Size
		if a == actI4 {
			bits, chunk, fsize = i4Bits, 4, fifo4Size
		} else if a == actI8 {
			bits, chunk, fsize = i8Bits, 8, fifo8Size
		}
		idx := rng.Intn(1 << bits)
		for try := 0; try < 40 && rng.Intn(600) != 0; try++ {
			if _, err := refResolveIndex(idx, total, chunk, fsize); err == nil {
				break
			}
			idx = rng.Intn(1 << bits)
			if try > 20 {
				idx = rng.Intn(4)
			}
		}
		return uint64(idx)
	}
	for i := 0; i < nOps; i++ {
		switch r := rng.Intn(300); {
		case r < 200:
			op := rng.Intn(len(templates))
			if total < 16 && rng.Intn(50) != 0 {
				op = 0 // nothing to reference yet
			}
			w.writeBits(uint64(op), opBits)
			for _, a := range templates[op] {
				switch a {
				case actD8:
					w.writeBits(rng.Uint64()>>7, 57)
					w.writeBits(rng.Uint64()>>57, 7)
				case actD4, actD2:
					w.writeBits(uint64(rng.Uint32())>>(32-actionBits[a]), actionBits[a])
				case actI2, actI4, actI8:
					w.writeBits(index(a), actionBits[a])
				}
			}
			total += 8
		case r < 230 && (total >= 8 || r == 200):
			n := rng.Intn(maxRepeat)
			w.writeBits(opRepeat, opBits)
			w.writeBits(uint64(n), repeatBits)
			total += 8 * (n + 1)
		case r < 250:
			w.writeBits(opZeros, opBits)
			total += 8
		case r < 250+shortData:
			n := 1 + rng.Intn(7)
			if r == 250 {
				n = 0 // the invalid count
			}
			w.writeBits(opShortData, opBits)
			w.writeBits(uint64(n), shortDataBits)
			for k := 0; k < n; k++ {
				w.writeBits(uint64(rng.Intn(256)), 8)
			}
			total += n
		case r == 298:
			w.writeBits(uint64(0x1A+5*rng.Intn(2)), opBits) // reserved 0x1A, 0x1F
		}
	}
	if rng.Intn(8) != 0 {
		w.writeBits(opEnd, opBits)
	}
	return w.bytes()
}

func TestDecompressEqualsReference(t *testing.T) {
	in := equivInputs()
	rng := rand.New(rand.NewSource(2048))
	for _, name := range sortedKeys(in) {
		plain := in[name]
		if len(plain) > 64<<10 {
			continue
		}
		comp := refCompress(plain)
		n := len(plain)
		for _, maxOut := range []int{n - 1, n, n + 1, 0, n - 8, n / 2} {
			if maxOut < 0 {
				continue
			}
			checkDecompress(t, fmt.Sprintf("%s/max=%d", name, maxOut), comp, maxOut)
		}
		// Damage wherever it lands: small streams get every prefix and
		// every single-bit flip, large ones a sample of each.
		step := 1
		if len(comp) > 700 {
			step = len(comp)/40 + 1
		}
		for cut := 0; cut < len(comp); cut += step {
			checkDecompress(t, fmt.Sprintf("%s/cut%d", name, cut), comp[:cut], 1<<20)
		}
		for bit := 0; bit < 8*len(comp); bit += 1 + (step-1)*8 + rng.Intn(step) {
			bad := bytes.Clone(comp)
			bad[bit/8] ^= 0x80 >> (bit % 8)
			checkDecompress(t, fmt.Sprintf("%s/flip%d", name, bit), bad, 1<<20)
			checkDecompress(t, fmt.Sprintf("%s/flip%d/tight", name, bit), bad, n)
		}
	}
	for i := 0; i < 2000; i++ {
		garbage := make([]byte, rng.Intn(200)+1)
		rng.Read(garbage)
		checkDecompress(t, fmt.Sprintf("garbage%d", i), garbage, 1<<16)
	}
	for i := 0; i < 4000; i++ {
		s := hostileStream(rng, 1+rng.Intn(400))
		checkDecompress(t, fmt.Sprintf("hostile%d", i), s, 1<<20)
		checkDecompress(t, fmt.Sprintf("hostile%d/tight", i), s, 1+rng.Intn(4096))
	}
}

func FuzzDecompressEqualsReference(f *testing.F) {
	rng := rand.New(rand.NewSource(69))
	for _, plain := range [][]byte{
		{}, []byte("1234567"), bytes.Repeat([]byte("8bytesat"), 200), make([]byte, 4096),
		corpus.Generate(corpus.Text, 4096, 3), corpus.Generate(corpus.Columnar, 6000, 4),
		edgeInput(8, 8, fifo8Size),
	} {
		comp := refCompress(plain)
		f.Add(comp, uint16(0))
		f.Add(comp, uint16(len(plain)))
		f.Add(comp[:len(comp)/2], uint16(0))
		bad := bytes.Clone(comp)
		bad[len(bad)/2] ^= 0x10
		f.Add(bad, uint16(len(plain)+1))
	}
	for i := 0; i < 8; i++ {
		f.Add(hostileStream(rng, 300), uint16(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, max16 uint16) {
		maxOut := int(max16) // 0 = the 256 MiB default, bounded below
		if maxOut == 0 {
			maxOut = 1 << 20
		}
		checkDecompress(t, "fuzz", data, maxOut)
	})
}
