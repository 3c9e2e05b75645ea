package deflate

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"nxzip/internal/bitio"
	"nxzip/internal/corpus"
	"nxzip/internal/huffman"
	"nxzip/internal/lz77"
	"nxzip/internal/testutil"
)

// The boundary between the fast loop and the careful one, from both sides:
// streams built so a given symbol lands inside the margins (roomy Dst, input
// to spare) and outside them (exact Dst, tight MaxOutput, last input bytes).

// expand is lz77's reference semantics of a token stream.
func expand(t *testing.T, tokens []lz77.Token) []byte {
	t.Helper()
	out, err := lz77.Expand(nil, tokens)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMatchCopyEveryShortDistanceAndLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var head, tail []lz77.Token
	for i := 0; i < 40; i++ {
		head = append(head, lz77.Lit(byte(rng.Intn(256))))
	}
	for i := 0; i < 300; i++ { // keeps the match clear of both end margins
		tail = append(tail, lz77.Lit(byte('a'+i%7)))
	}
	for _, dist := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 40} {
		for length := lz77.MinMatch; length <= lz77.MaxMatch; length++ {
			tokens := append(append(append([]lz77.Token{}, head...), lz77.Match(length, dist)), tail...)
			want := expand(t, tokens)
			for _, mode := range []BlockMode{ModeFixed, ModeDynamic} {
				comp, err := EncodeTokens(tokens, want, mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("dist %d length %d mode %d", dist, length, mode)
				if got, err := Decompress(comp, InflateOptions{}); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: err %v, %d bytes (want %d)", name, err, len(got), len(want))
				}
				for _, dstCap := range []int{len(want) + 1024, len(want)} {
					checkEqualsReference(t, name, comp, 0, dstCap)
				}
			}
		}
	}
}

func TestLongestMatchAtTheOutputBudget(t *testing.T) {
	// ... 258-byte match ... : the budget is swept across the match's last
	// byte and across the stream's, with room to spare and with none.
	var tokens []lz77.Token
	for i := 0; i < 400; i++ {
		tokens = append(tokens, lz77.Lit(byte(i)))
	}
	tokens = append(tokens, lz77.Match(258, 300), lz77.Lit('x'), lz77.Lit('y'))
	plain := expand(t, tokens)
	matchEnd := 400 + 258
	for _, mode := range []BlockMode{ModeFixed, ModeDynamic} {
		comp, err := EncodeTokens(tokens, plain, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxOut := range []int{matchEnd - 1, matchEnd, matchEnd + 1, len(plain) - 1, len(plain), len(plain) + 1} {
			_, err := Decompress(comp, InflateOptions{MaxOutput: maxOut, Dst: make([]byte, 0, 4096)})
			if tooSmall := maxOut < len(plain); tooSmall != errors.Is(err, ErrTooLarge) || (!tooSmall && err != nil) {
				t.Fatalf("mode %d budget %d of %d: %v", mode, maxOut, len(plain), err)
			}
			for _, dstCap := range []int{-1, maxOut, 4096} {
				checkEqualsReference(t, fmt.Sprintf("mode %d budget %d cap %d", mode, maxOut, dstCap), comp, maxOut, dstCap)
			}
		}
	}
}

func TestStreamEndingOnTheLastBitOfEndOfBlock(t *testing.T) {
	// Fixed block: 3 header bits, six 9-bit literals (144..255), two 8-bit
	// ones and the 7-bit end-of-block: 80 bits, ten whole bytes, no padding.
	plain := []byte{200, 201, 202, 203, 204, 205, 'o', 'k'}
	enc, err := huffman.NewEncoder(FixedLitLenLengths())
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(nil)
	w.WriteBits(1|1<<1, 3)
	for _, sym := range append(bytes.Clone(plain), 0) {
		c := enc.Codes[sym]
		if sym == 0 {
			c = enc.Codes[EndOfBlock]
		}
		w.WriteBits(uint64(c.Bits), uint(c.Len))
	}
	if w.BitsWritten() != 80 {
		t.Fatalf("crafted stream is %d bits, want 80", w.BitsWritten())
	}
	comp := w.Bytes()
	got, consumed, err := DecompressTail(comp, InflateOptions{})
	if err != nil || !bytes.Equal(got, plain) || consumed != len(comp) {
		t.Fatalf("got %q, consumed %d of %d, err %v", got, consumed, len(comp), err)
	}
	if _, err := Decompress(comp[:len(comp)-1], InflateOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stream cut inside end-of-block: %v", err)
	}
	checkEqualsReference(t, "unpadded", comp, 0, -1)
	// The same with input to spare behind it, so the fast loop meets the
	// end-of-block with a full buffer.
	checkEqualsReference(t, "unpadded+trailer", append(bytes.Clone(comp), make([]byte, 32)...), 0, 1024)
}

func TestEveryPrefixOfAValidStreamIsCorrupt(t *testing.T) {
	plain := corpus.Generate(corpus.Text, 3000, 5)
	for _, mode := range []BlockMode{ModeFixed, ModeDynamic} {
		comp, err := Compress(plain, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, 8192)
		for cut := 0; cut < len(comp); cut++ {
			if _, err := Decompress(comp[:cut], InflateOptions{Dst: dst}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mode %d: %d of %d bytes: %v", mode, cut, len(comp), err)
			}
		}
	}
}

func TestFirstMemberConsumedIsExact(t *testing.T) {
	// The 8-byte refill reads ahead into the next member; consumed must
	// still stop at this member's last trailer byte.
	var stream []byte
	var members [][]byte
	var plains [][]byte
	for i, k := range corpus.Kinds() {
		plain := corpus.Generate(k, 1000+977*i, 2)
		gz, err := CompressGzip(plain, Options{Mode: []BlockMode{ModeFixed, ModeDynamic, ModeStored}[i%3]})
		if err != nil {
			t.Fatal(err)
		}
		members, plains = append(members, gz), append(plains, plain)
		stream = append(stream, gz...)
	}
	for i := range members {
		got, consumed, crc, err := DecompressGzipTail(stream, InflateOptions{Dst: make([]byte, 0, 1<<16)})
		if err != nil || !bytes.Equal(got, plains[i]) || consumed != len(members[i]) {
			t.Fatalf("member %d: consumed %d of %d, err %v", i, consumed, len(members[i]), err)
		}
		if _, want, _, _ := GzipUnwrap(members[i]); crc != want {
			t.Fatalf("member %d: handed back CRC %08x, trailer says %08x", i, crc, want)
		}
		stream = stream[consumed:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d bytes left after the last member", len(stream))
	}
}

func TestManySmallMembersAllocateInProportionToTheirOutput(t *testing.T) {
	// A first-member decode with no Dst sees the rest of the stream as unread
	// input. Its buffer must follow its own output, or M small members cost
	// O(M * stream) bytes allocated and cleared — the bomb MaxOutput rules out.
	plain := []byte("one small member's worth of payload\n")
	member, err := CompressGzip(plain, Options{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	const members = 4000
	stream := bytes.Repeat(member, members)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := DecompressGzipMulti(stream, InflateOptions{})
	runtime.ReadMemStats(&after)
	if err != nil || !bytes.Equal(out, bytes.Repeat(plain, members)) {
		t.Fatalf("err %v, %d bytes", err, len(out))
	}
	// One margin-sized buffer a member plus the appends that join them; sizing
	// by the unread input would come to 3 * len(stream) * members / 2.
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(members*1024+8*len(out)); got > bound {
		t.Errorf("%d members, %d bytes of stream, %d of output: %d bytes allocated, want at most %d",
			members, len(stream), len(out), got, bound)
	}
}

func TestDecodeAllocsNothingInSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	plain := corpus.Generate(corpus.Text, 256<<10, 9)
	comp, err := Compress(plain, Options{Mode: ModeDynamic, BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(plain)+4096)
	if n := testing.AllocsPerRun(20, func() {
		if out, err := Decompress(comp, InflateOptions{Dst: dst}); err != nil || len(out) != len(plain) {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Decompress of dynamic blocks into a roomy Dst: %v allocs/op, want 0", n)
	}
}
