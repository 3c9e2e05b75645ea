package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriterBasic(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0b101, 3)
	w.WriteBits(0b11, 2)
	w.WriteBits(0b0, 1)
	w.WriteBits(0b11, 2)
	// bits, LSB first: 1 0 1 1 1 0 1 1 -> byte 0b11011101 = 0xDD
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0xDD {
		t.Fatalf("got % x, want dd", got)
	}
}

func TestWriterCrossesByteBoundary(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0xABCD, 16)
	got := w.Bytes()
	want := []byte{0xCD, 0xAB}
	if !bytes.Equal(got, want) {
		t.Fatalf("got % x want % x", got, want)
	}
}

func TestAlignByte(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(1, 1)
	if pad := w.AlignByte(); pad != 7 {
		t.Fatalf("pad = %d, want 7", pad)
	}
	if !w.Aligned() {
		t.Fatal("not aligned after AlignByte")
	}
	if pad := w.AlignByte(); pad != 0 {
		t.Fatalf("second AlignByte pad = %d, want 0", pad)
	}
	w.WriteBytes([]byte{0x42})
	got := w.Bytes()
	want := []byte{0x01, 0x42}
	if !bytes.Equal(got, want) {
		t.Fatalf("got % x want % x", got, want)
	}
}

func TestBitsWritten(t *testing.T) {
	w := NewWriter(nil)
	if w.BitsWritten() != 0 {
		t.Fatal("fresh writer has bits")
	}
	w.WriteBits(0, 5)
	if got := w.BitsWritten(); got != 5 {
		t.Fatalf("BitsWritten = %d, want 5", got)
	}
	w.WriteBits(0, 13)
	if got := w.BitsWritten(); got != 18 {
		t.Fatalf("BitsWritten = %d, want 18", got)
	}
}

func TestWriteBytesUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unaligned WriteBytes")
		}
	}()
	w := NewWriter(nil)
	w.WriteBits(1, 1)
	w.WriteBytes([]byte{0})
}

func TestReaderBasic(t *testing.T) {
	r := NewReader([]byte{0xDD})
	for i, want := range []uint64{0b101, 0b11, 0, 0b11} {
		n := []uint{3, 2, 1, 2}[i]
		got, err := r.ReadBits(n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("field %d: got %b want %b", i, got, want)
		}
	}
	if _, err := r.ReadBits(1); err != ErrUnexpectedEOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderPeekAndSkip(t *testing.T) {
	r := NewReader([]byte{0xCD, 0xAB})
	v, avail := r.PeekBits(16)
	if avail != 16 || v != 0xABCD {
		t.Fatalf("peek got %x/%d", v, avail)
	}
	if err := r.SkipBits(4); err != nil {
		t.Fatal(err)
	}
	v, _ = r.PeekBits(12)
	if v != 0xABC {
		t.Fatalf("after skip got %x", v)
	}
	// Peek past EOF: available bits capped.
	if err := r.SkipBits(12); err != nil {
		t.Fatal(err)
	}
	_, avail = r.PeekBits(8)
	if avail != 0 {
		t.Fatalf("avail at EOF = %d", avail)
	}
}

func TestReaderAlignAndBytes(t *testing.T) {
	r := NewReader([]byte{0x01, 0x42, 0x43})
	if _, err := r.ReadBits(1); err != nil {
		t.Fatal(err)
	}
	if drop := r.AlignByte(); drop != 7 {
		t.Fatalf("drop = %d", drop)
	}
	p := make([]byte, 2)
	if err := r.ReadBytes(p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, []byte{0x42, 0x43}) {
		t.Fatalf("ReadBytes got % x", p)
	}
	if err := r.ReadBytes(make([]byte, 1)); err == nil {
		t.Fatal("expected EOF")
	}
}

// bitAt is the definition the Reader is held to: bit i of an LSB-first stream.
func bitAt(data []byte, i int) uint64 { return uint64(data[i/8]>>(i%8)) & 1 }

// A random walk of every read, peek, skip, align and bulk-byte operation
// over a buffer long enough for the 8-byte fill and short enough to end in
// the byte-at-a-time tail, each result checked bit by bit against the data
// and the position accounting checked after every step.
func TestReaderWalkMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		r, at, total := NewReader(data), 0, len(data)*8
		for at < total {
			n := rng.Intn(49)
			switch op := rng.Intn(6); {
			case op == 0: // peek never moves, pads with zeros past the end
				v, avail := r.PeekBits(uint(n))
				if want := min(n, total-at); int(avail) != want {
					t.Fatalf("peek %d at %d/%d: avail %d", n, at, total, avail)
				}
				for i := 0; i < n; i++ {
					want := uint64(0)
					if at+i < total {
						want = bitAt(data, at+i)
					}
					if v>>i&1 != want {
						t.Fatalf("peek %d at %d: bit %d wrong", n, at, i)
					}
				}
			case op == 1: // skips of any size, past the accumulator too
				n = rng.Intn(200)
				if err := r.SkipBits(uint(n)); (err != nil) != (n > total-at) {
					t.Fatalf("skip %d at %d/%d: %v", n, at, total, err)
				} else if err != nil {
					at = total
					continue
				}
				at += n
			case op == 2:
				at += int(r.AlignByte())
				if at%8 != 0 {
					t.Fatalf("align left position %d", at)
				}
				p := make([]byte, rng.Intn(12))
				if err := r.ReadBytes(p); (err != nil) != (len(p) > (total-at)/8) {
					t.Fatalf("ReadBytes %d at %d/%d: %v", len(p), at, total, err)
				} else if err != nil {
					at = total
					continue
				}
				if !bytes.Equal(p, data[at/8:at/8+len(p)]) {
					t.Fatalf("ReadBytes %d at %d: wrong bytes", len(p), at)
				}
				at += 8 * len(p)
			case op == 3: // a decode loop borrowing and returning the position
				_, pos, acc, nacc := r.State()
				r.SetState(pos, acc|^uint64(0)<<nacc, nacc) // junk above nacc is ignored
			default:
				v, err := r.ReadBits(uint(n))
				if (err != nil) != (n > total-at) {
					t.Fatalf("read %d at %d/%d: %v", n, at, total, err)
				} else if err != nil {
					continue
				}
				for i := 0; i < n; i++ {
					if v>>i&1 != bitAt(data, at+i) {
						t.Fatalf("read %d at %d: bit %d wrong", n, at, i)
					}
				}
				at += n
			}
			if r.BitsConsumed() != at || r.BitsRemaining() != total-at {
				t.Fatalf("position %d/%d, reader says %d consumed %d remaining", at, total, r.BitsConsumed(), r.BitsRemaining())
			}
		}
	}
}

func TestReaderBitsAccounting(t *testing.T) {
	r := NewReader(make([]byte, 4))
	if r.BitsRemaining() != 32 || r.BitsConsumed() != 0 {
		t.Fatal("fresh accounting wrong")
	}
	_, _ = r.ReadBits(11)
	if r.BitsConsumed() != 11 || r.BitsRemaining() != 21 {
		t.Fatalf("consumed=%d remaining=%d", r.BitsConsumed(), r.BitsRemaining())
	}
}

func TestReverse(t *testing.T) {
	cases := []struct {
		v    uint32
		n    uint
		want uint32
	}{
		{0b1, 1, 0b1},
		{0b10, 2, 0b01},
		{0b110, 3, 0b011},
		{0x1, 15, 0x4000},
		{0, 8, 0},
	}
	for _, c := range cases {
		if got := Reverse(c.v, c.n); got != c.want {
			t.Errorf("Reverse(%b,%d) = %b, want %b", c.v, c.n, got, c.want)
		}
	}
}

func TestReverseInvolution(t *testing.T) {
	f := func(v uint32, n8 uint8) bool {
		n := uint(n8%16) + 1
		v &= (1 << n) - 1
		return Reverse(Reverse(v, n), n) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripRandom writes random-width fields and reads them back.
func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		type field struct {
			v uint64
			n uint
		}
		var fields []field
		w := NewWriter(nil)
		nf := rng.Intn(300)
		for i := 0; i < nf; i++ {
			n := uint(rng.Intn(48) + 1)
			v := rng.Uint64() & ((1 << n) - 1)
			fields = append(fields, field{v, n})
			w.WriteBits(v, n)
		}
		r := NewReader(w.Bytes())
		for i, f := range fields {
			got, err := r.ReadBits(f.n)
			if err != nil {
				t.Fatalf("trial %d field %d: %v", trial, i, err)
			}
			if got != f.v {
				t.Fatalf("trial %d field %d: got %x want %x", trial, i, got, f.v)
			}
		}
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	if w.BitsWritten() != 0 {
		t.Fatal("reset did not clear")
	}
	w.WriteBits(0x2, 2)
	if got := w.Bytes(); len(got) != 1 || got[0] != 0x02 {
		t.Fatalf("after reset got % x", got)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(make([]byte, 0, 1<<20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.BitsWritten() > 1<<22 {
			w.Reset()
		}
		w.WriteBits(uint64(i), uint(i%32)+1)
	}
}

func BenchmarkReadBits(b *testing.B) {
	data := make([]byte, 1<<16)
	for i := range data {
		data[i] = byte(i * 7)
	}
	r := NewReader(data)
	b.SetBytes(4)
	for i := 0; i < b.N; i++ {
		if r.BitsRemaining() < 64 {
			r.Reset(data)
		}
		_, _ = r.ReadBits(32)
	}
}

// TestWriterFillsCallerBufferToTheLastByte writes the same bit sequence
// into buffers whose spare capacity runs from nothing to plenty: the bytes
// never differ, the caller's buffer is used while the output fits it (the
// wide store needs eight bytes of room; closer to the end bytes are
// appended singly), and nothing past its capacity is touched.
func TestWriterFillsCallerBufferToTheLastByte(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type field struct {
		v uint64
		n uint
	}
	var fields []field
	for i := 0; i < 200; i++ {
		fields = append(fields, field{rng.Uint64(), uint(rng.Intn(49))})
	}
	ref := NewWriter(nil)
	for _, f := range fields {
		ref.WriteBits(f.v, f.n)
	}
	want := bytes.Clone(ref.Bytes())
	for spare := 0; spare <= len(want)+9; spare++ {
		guard := bytes.Repeat([]byte{0xA5}, spare+16)
		w := NewWriter(guard[:0:spare])
		for i, f := range fields {
			if i == len(fields)/2 {
				// An emit loop borrows the position and hands it back.
				buf, acc, nacc := w.State()
				w.SetState(buf, acc, nacc)
			}
			w.WriteBits(f.v, f.n)
		}
		got := w.Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("spare %d: bytes differ", spare)
		}
		if spare >= len(want) && &got[0] != &guard[0] {
			t.Fatalf("spare %d: output fits the caller's buffer but left it", spare)
		}
		for i, b := range guard[spare:] {
			if b != 0xA5 {
				t.Fatalf("spare %d: wrote %d bytes past the capacity", spare, i+1)
			}
		}
	}
}
