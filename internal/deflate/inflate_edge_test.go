package deflate

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/bits"
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
func expand(t testing.TB, tokens []lz77.Token) []byte {
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

func TestDecompressGzipMultiMembers(t *testing.T) {
	// Streams of CompressGzip members, each decoded by DecompressGzipMulti
	// and by compress/gzip to the concatenation of the plaintexts: members
	// of differing content and block mode, a text cut into the 16 KiB
	// members a chunking writer makes, and empty and one-byte members alone
	// and between data.
	text := corpus.Generate(corpus.Text, 100<<10, 5)
	var kinds, chunks [][]byte
	for i, k := range corpus.Kinds() {
		kinds = append(kinds, corpus.Generate(k, 3000+1009*i, 7))
	}
	for lo := 0; lo < len(text); lo += 16 << 10 {
		chunks = append(chunks, text[lo:min(lo+16<<10, len(text))])
	}
	rows := []struct {
		name    string
		members [][]byte
	}{
		{"one member", [][]byte{text}},
		{"differing kinds", kinds},
		{"16 KiB chunks", chunks},
		{"empty", [][]byte{{}}},
		{"one byte", [][]byte{[]byte("x")}},
		{"empty and one-byte between data", [][]byte{kinds[0], {}, []byte("x"), {}, kinds[1], []byte("y")}},
	}
	for _, r := range rows {
		var stream, want []byte
		for i, m := range r.members {
			gz, err := CompressGzip(m, Options{Level: 6, Mode: []BlockMode{ModeDynamic, ModeFixed, ModeStored}[i%3]})
			if err != nil {
				t.Fatal(err)
			}
			stream, want = append(stream, gz...), append(want, m...)
		}
		got, err := DecompressGzipMulti(stream, InflateOptions{})
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: DecompressGzipMulti %d bytes, want %d, err %v", r.name, len(got), len(want), err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: compress/gzip: %v", r.name, err)
		}
		if std, err := io.ReadAll(zr); err != nil || !bytes.Equal(std, want) {
			t.Errorf("%s: compress/gzip %d bytes, want %d, err %v", r.name, len(std), len(want), err)
		}
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

// Long codes through the fast loop. longDHT gives the sixteen literals
// 0xF0-0xFF 15-bit codes and match length 3 (symbol 257) a 12-bit one, both
// longer than the literal/length primary table, so both resolve through a
// sub-table link; 'g' and end-of-block get 10 bits, the longest code a
// primary entry holds, 'a'-'f' 4-9 and every other length symbol 8. The
// rest of the code space goes to filler literals the rows never use, so
// the code is complete.
const (
	longLit   = 0xF0 // first of the sixteen 15-bit literals
	longLitN  = 16
	longLitCL = 15
	wideLit   = 'g'
	wideLitCL = 10
	linkLen   = 3 // a match of this length is coded by symbol 257
	linkLenCL = 12
)

func longDHT() *DHT {
	ll := make([]uint8, NumLitLen)
	for i := 0; i < longLitN; i++ {
		ll[longLit+i] = longLitCL
	}
	ll[257] = linkLenCL
	for i, c := range "abcdef" {
		ll[c] = uint8(4 + i)
	}
	ll[wideLit] = wideLitCL
	ll[EndOfBlock] = 10
	for s := 258; s < NumLitLen; s++ {
		ll[s] = 8
	}
	left := 1 << maxCodeLen
	for _, l := range ll {
		if l > 0 {
			left -= 1 << (maxCodeLen - l)
		}
	}
	for sym := 0; left > 0; sym++ { // largest free power of two first
		if ll[sym] == 0 {
			ll[sym] = uint8(maxCodeLen + 1 - bits.Len(uint(left)))
			left -= 1 << (maxCodeLen - int(ll[sym]))
		}
	}
	d := make([]uint8, NumDist)
	for s := range d {
		d[s] = 5
	}
	d[0], d[1] = 4, 4
	return &DHT{LitLen: ll, Dist: d}
}

// longCodeRow is one stream of TestFastLoopLongCodeRows: a short history, pad
// 9-bit literals (each shifts every later symbol by one bit modulo 8, so
// sixteen pads put the symbols after them at every offset from a refill
// twice), a match, a run of literals, then the row's terminator, an
// optional tail, and trail bytes of input after the stream. A "long" run
// is all 15-bit literals, each resolved from a link; a "mixed" run is one
// of them and then 10-bit ones, the literal chain that leaves the fewest
// bits in the buffer.
type longCodeRow struct {
	name   string
	tokens []lz77.Token
	run    int  // literals right after the first match
	link   bool // the terminator is a match of linkLen
	runEnd int  // output length just after the run
	trail  int
}

func longCodeRows() []longCodeRow {
	terms := []struct {
		name string
		tok  []lz77.Token
	}{
		{"eob", nil},
		{"lit", []lz77.Token{lz77.Lit('a')}},
		{"match", []lz77.Token{lz77.Match(10, 3)}},
		{"link", []lz77.Token{lz77.Match(linkLen, 2)}},
	}
	// 36 bytes of input keep the fast loop running past the run; the two
	// long matches put the run 580 bytes before the end of the output.
	var tail []lz77.Token
	for i := 0; i < 32; i++ {
		tail = append(tail, lz77.Lit('f'))
	}
	tail = append(tail, lz77.Match(258, 1), lz77.Match(258, 7))
	var rows []longCodeRow
	for pad := 0; pad < 16; pad++ {
		for run := 0; run <= 4; run++ {
			for _, mixed := range []bool{false, true} {
				if mixed && run < 2 {
					continue
				}
				for _, term := range terms {
					for _, tailed := range []bool{false, true} {
						var tokens []lz77.Token
						for _, c := range "abcdefab" {
							tokens = append(tokens, lz77.Lit(byte(c)))
						}
						for i := 0; i < pad; i++ {
							tokens = append(tokens, lz77.Lit('f'))
						}
						tokens = append(tokens, lz77.Match(6, 4))
						for i := 0; i < run; i++ {
							lit := byte(longLit + (pad+i)%longLitN)
							if mixed && i > 0 {
								lit = wideLit
							}
							tokens = append(tokens, lz77.Lit(lit))
						}
						runEnd := 8 + pad + 6 + run
						tokens = append(tokens, term.tok...)
						trails := []int{0}
						if tailed {
							tokens = append(tokens, tail...)
						} else if !mixed {
							trails = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
						}
						kind := "long"
						if mixed {
							kind = "mixed"
						}
						for _, trail := range trails {
							rows = append(rows, longCodeRow{
								name:   fmt.Sprintf("pad %d/%s run %d/%s/tail %v/trail %d", pad, kind, run, term.name, tailed, trail),
								tokens: tokens, run: run, link: term.name == "link", runEnd: runEnd, trail: trail,
							})
						}
					}
				}
			}
		}
	}
	return rows
}

// encode writes the row as one dynamic block with longDHT, trail bytes
// after it.
func (row longCodeRow) encode(t testing.TB, dht *DHT) (comp, plain []byte) {
	t.Helper()
	plain = expand(t, row.tokens)
	comp, err := EncodeTokens(row.tokens, plain, ModeDynamic, dht)
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	return append(comp, make([]byte, row.trail)...), plain
}

// streamLitLenLengths reads the code lengths a dynamic block's header
// carries for the literal/length alphabet.
func streamLitLenLengths(t *testing.T, comp []byte) []uint8 {
	t.Helper()
	in := new(inflater)
	in.r.Reset(comp)
	if hdr, err := in.r.ReadBits(3); err != nil || hdr>>1 != 2 {
		t.Fatalf("not a dynamic block: header %d, %v", hdr, err)
	}
	if err := in.readDynamicHeader(&in.r); err != nil {
		t.Fatal(err)
	}
	return in.lengths[:NumLitLen]
}

func TestFastLoopLongCodeRows(t *testing.T) {
	dht := longDHT()
	for _, row := range longCodeRows() {
		comp, plain := row.encode(t, dht)
		lens := streamLitLenLengths(t, comp)
		for _, tok := range row.tokens {
			lit, want := tok.Literal(), uint8(0)
			switch {
			case tok.IsMatch():
			case lit >= longLit:
				want = longLitCL
			case lit == wideLit:
				want = wideLitCL
			}
			if want != 0 && lens[lit] != want {
				t.Fatalf("%s: literal %#x has a %d-bit code, want %d", row.name, lit, lens[lit], want)
			}
		}
		if row.link && lens[257] != linkLenCL {
			t.Fatalf("%s: length %d has a %d-bit code, want %d", row.name, linkLen, lens[257], linkLenCL)
		}
		n := len(plain)
		for _, maxOut := range []int{n - 1, n, n + 1} {
			for _, dstCap := range []int{-1, n, n + 4096} {
				checkEqualsReference(t, fmt.Sprintf("%s/max=%d/cap=%d", row.name, maxOut, dstCap), comp, maxOut, dstCap)
			}
		}
		if row.run == 0 || row.trail > 0 || n < row.runEnd+fastOutMargin {
			continue
		}
		// The fast loop's output limit, then the budget itself, just after
		// the run: the loop must stop there, or not, and hand over cleanly.
		for _, at := range []int{row.runEnd + fastOutMargin, row.runEnd} {
			for _, lim := range []int{at - 1, at, at + 1} {
				checkEqualsReference(t, fmt.Sprintf("%s/max=%d", row.name, lim), comp, lim, -1)
				checkEqualsReference(t, fmt.Sprintf("%s/cap=%d", row.name, lim), comp, 0, lim)
			}
		}
	}
}
