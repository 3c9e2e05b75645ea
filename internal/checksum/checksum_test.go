package checksum

import (
	"bytes"
	"hash/adler32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCRC32KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
	}{
		{"", 0x00000000},
		{"a", 0xE8B7BE43},
		{"abc", 0x352441C2},
		{"123456789", 0xCBF43926},
		{"The quick brown fox jumps over the lazy dog", 0x414FA339},
	}
	for _, c := range cases {
		if got := Sum32([]byte(c.in)); got != c.want {
			t.Errorf("CRC32(%q) = %08x, want %08x", c.in, got, c.want)
		}
	}
	// C zlib 1.2.13's crc32 over prefixes of zlibBuf, at lengths around
	// hash/crc32's 64-byte carry-less-multiply cut-over and the old
	// 16-byte slicing step, computed once with
	//   python3 -c "import zlib; b=bytes(((i*i+7*i+40)*2654435761&0xffffffff)>>24 for i in range(65543)); print([hex(zlib.crc32(b[:n])) for n in (0,1,15,16,17,63,64,65,127,128,129,1023,4097,65543)])"
	zlib := []struct {
		n    int
		want uint32
	}{
		{0, 0x00000000}, {1, 0x17B8D433}, {15, 0x97C8B304}, {16, 0x0A980CE4},
		{17, 0x40DAF91A}, {63, 0x320101B8}, {64, 0x615694A2}, {65, 0x800B5B2F},
		{127, 0xCB6D08F6}, {128, 0xC213F8DF}, {129, 0xD61BDA60},
		{1023, 0x3D41C152}, {4097, 0xF8221A5F}, {65543, 0xB7064295},
	}
	buf := zlibBuf(65543)
	for _, c := range zlib {
		if got := Sum32(buf[:c.n]); got != c.want {
			t.Errorf("CRC32 of zlibBuf[:%d] = %08x, zlib %08x", c.n, got, c.want)
		}
	}
}

// zlibBuf is the seeded buffer TestCRC32KnownVectors's zlib values are
// computed over: byte i is the top byte of (i*i+7*i+40)*2654435761 mod 2^32.
func zlibBuf(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(uint32(i*i+7*i+40) * 2654435761 >> 24)
	}
	return b
}

// TestCRC32MatchesStdlib holds Update, which is hash/crc32's IEEE path,
// to the two oracles that share no code with it: the slicing-by-16 tables
// and the bitwise definition.
func TestCRC32MatchesStdlib(t *testing.T) {
	f := func(p []byte) bool {
		want := bitwiseCRC32(p)
		return Sum32(p) == want && slicingSum32(p) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCRC32EqualsOracle: any bytes, cut at two points the fuzzer chooses
// and fed as three Updates, sum to what the slicing-by-16 oracle, the
// bitwise definition and Sum32 give for the whole input.
func FuzzCRC32EqualsOracle(f *testing.F) {
	f.Add([]byte("123456789"), uint16(3), uint16(7))
	f.Add(zlibBuf(200), uint16(63), uint16(129))
	f.Add(zlibBuf(4097), uint16(16), uint16(4096))
	f.Fuzz(func(t *testing.T, p []byte, a, b uint16) {
		i, j := int(a)%(len(p)+1), int(b)%(len(p)+1)
		if i > j {
			i, j = j, i
		}
		var c CRC32
		c.Update(p[:i])
		c.Update(p[i:j])
		c.Update(p[j:])
		want := bitwiseCRC32(p)
		if got := c.Sum(); got != want || slicingSum32(p) != want || Sum32(p) != want {
			t.Fatalf("%d bytes cut at %d, %d: three updates %08x, slicing %08x, bitwise %08x, Sum32 %08x",
				len(p), i, j, got, slicingSum32(p), want, Sum32(p))
		}
	})
}

// Every length around the 16-byte main step and every split of an
// incremental update across it, against the table-free definition; Adler-32
// likewise around its 8-byte step and its NMAX reduction, against stdlib.
func TestChecksumsMatchOraclesAtStepBoundaries(t *testing.T) {
	data := make([]byte, 3*5552+40)
	rand.New(rand.NewSource(5)).Read(data)
	for i := range data[:64] {
		data[i] = 0xFF // the worst case for Adler's lane sums
	}
	lengths := []int{5551, 5552, 5553, 2 * 5552, 2*5552 + 7, len(data)}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		p := data[:n]
		if got, want := Sum32(p), bitwiseCRC32(p); got != want {
			t.Fatalf("CRC32 of %d bytes = %08x, bitwise %08x", n, got, want)
		}
		if got, want := SumAdler32(p), adler32.Checksum(p); got != want {
			t.Fatalf("Adler32 of %d bytes = %08x, stdlib %08x", n, got, want)
		}
		for _, cut := range []int{1, 7, 8, 15, 16, 17} {
			if cut > n {
				continue
			}
			var c CRC32
			c.Update(p[:cut])
			c.Update(p[cut:])
			ad := NewAdler32()
			ad.Update(p[:cut])
			ad.Update(p[cut:])
			if c.Sum() != bitwiseCRC32(p) || ad.Sum() != adler32.Checksum(p) {
				t.Fatalf("%d bytes split at %d: CRC %08x Adler %08x", n, cut, c.Sum(), ad.Sum())
			}
		}
	}
}

func TestCRC32Incremental(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 100000)
	rng.Read(data)
	whole := Sum32(data)
	var c CRC32
	pos := 0
	for pos < len(data) {
		n := rng.Intn(9000) + 1
		if pos+n > len(data) {
			n = len(data) - pos
		}
		c.Update(data[pos : pos+n])
		pos += n
	}
	if c.Sum() != whole {
		t.Fatalf("incremental %08x != whole %08x", c.Sum(), whole)
	}
	c.Reset()
	if c.Sum() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestAdler32KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
	}{
		{"", 0x00000001},
		{"a", 0x00620062},
		{"abc", 0x024D0127},
		{"Wikipedia", 0x11E60398},
	}
	for _, c := range cases {
		if got := SumAdler32([]byte(c.in)); got != c.want {
			t.Errorf("Adler32(%q) = %08x, want %08x", c.in, got, c.want)
		}
	}
}

func TestAdler32MatchesStdlib(t *testing.T) {
	f := func(p []byte) bool {
		return SumAdler32(p) == adler32.Checksum(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAdler32LargeBlockReduction(t *testing.T) {
	// Exercise the deferred-reduction path with > nmax bytes of 0xFF.
	data := make([]byte, 3*adlerNMax+17)
	for i := range data {
		data[i] = 0xFF
	}
	if got, want := SumAdler32(data), adler32.Checksum(data); got != want {
		t.Fatalf("got %08x want %08x", got, want)
	}
}

func TestAdler32Incremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 50000)
	rng.Read(data)
	ad := NewAdler32()
	pos := 0
	for pos < len(data) {
		n := rng.Intn(7777) + 1
		if pos+n > len(data) {
			n = len(data) - pos
		}
		ad.Update(data[pos : pos+n])
		pos += n
	}
	if got, want := ad.Sum(), adler32.Checksum(data); got != want {
		t.Fatalf("incremental %08x != %08x", got, want)
	}
}

func TestZeroValueCRC(t *testing.T) {
	var c CRC32
	if c.Sum() != 0 {
		t.Fatal("zero-value CRC of empty message should be 0")
	}
	c.Update(nil)
	if c.Sum() != 0 {
		t.Fatal("CRC of empty update should be 0")
	}
}

func BenchmarkCRC32(b *testing.B) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sum32(data)
	}
}

func BenchmarkAdler32(b *testing.B) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		SumAdler32(data)
	}
}

// TestSumBothMatchesStdlib holds the striped single pass to the bitwise
// CRC and the stdlib Adler-32 on lengths around its stripe boundaries.
func TestSumBothMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	buf := make([]byte, 3*bothStripe+100)
	rng.Read(buf)
	for _, n := range []int{0, 1, 15, bothStripe - 1, bothStripe, bothStripe + 1, 2 * bothStripe, 2*bothStripe + 7, len(buf)} {
		crc, adler := SumBoth(buf[:n])
		if want := bitwiseCRC32(buf[:n]); crc != want {
			t.Errorf("n=%d: crc %08x, want %08x", n, crc, want)
		}
		if want := adler32.Checksum(buf[:n]); adler != want {
			t.Errorf("n=%d: adler %08x, want %08x", n, adler, want)
		}
	}
}

// TestFollowerMatchesSumBoth: whatever prefixes of a message are published
// — none, one, many, some repeated, some in a copy of the backing — a
// follower whose goroutine starts and one whose goroutine never does both
// Finish with SumBoth's sums, Finish again with the same, and after
// Release sum the next message afresh.
func TestFollowerMatchesSumBoth(t *testing.T) {
	msg := make([]byte, 300<<10)
	rand.New(rand.NewSource(8)).Read(msg)
	wantCRC, wantAdler := SumBoth(msg)
	for _, start := range []bool{false, true} {
		f := NewFollower(func() bool { return start })
		for _, cuts := range [][]int{nil, {len(msg)}, {1, 7, 8 << 10, 8<<10 + 1, 100 << 10, 100 << 10, 299 << 10}, {64 << 10, 128 << 10}} {
			backing := msg
			for i, n := range cuts {
				if i == 2 {
					backing = bytes.Clone(msg) // as the inflater's grow: the same bytes, moved
				}
				f.Publish(backing[:n])
			}
			for range 2 {
				if crc, adler := f.Finish(msg); crc != wantCRC || adler != wantAdler {
					t.Fatalf("start %v, publishes %v: %08x/%08x, SumBoth %08x/%08x", start, cuts, crc, adler, wantCRC, wantAdler)
				}
			}
			if followed := f.Release(); followed != (start && len(cuts) > 0) {
				t.Fatalf("start %v, publishes %v: followed %v", start, cuts, followed)
			}
		}
		f.Publish(msg[:5])
		if crc, adler := f.Finish(msg[:9]); crc != Sum32(msg[:9]) || adler != SumAdler32(msg[:9]) {
			t.Fatalf("start %v: a second message after Release sums %08x/%08x", start, crc, adler)
		}
		f.Release()
	}
}
