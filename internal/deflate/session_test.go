package deflate

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"testing"

	"nxzip/internal/testutil"
)

// feedInPieces drives a Session with chunkSizes-byte pieces of comp.
func feedInPieces(t *testing.T, comp []byte, chunk int, opts InflateOptions) []byte {
	t.Helper()
	s := NewSession(opts)
	var out []byte
	for off := 0; off < len(comp); off += chunk {
		end := off + chunk
		final := false
		if end >= len(comp) {
			end = len(comp)
			final = true
		}
		got, err := s.Feed(comp[off:end], final)
		if err != nil {
			t.Fatalf("feed at %d: %v", off, err)
		}
		out = append(out, got...)
	}
	if !s.Done() {
		t.Fatal("session not done after final feed")
	}
	return out
}

func TestSessionSingleShot(t *testing.T) {
	src := corpusInputs(t)["text"]
	comp, err := Compress(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := feedInPieces(t, comp, len(comp), InflateOptions{})
	if !bytes.Equal(got, src) {
		t.Fatal("mismatch")
	}
}

func TestSessionByteAtATime(t *testing.T) {
	src := []byte("the stream arrives one byte at a time, one byte at a time.")
	comp, err := Compress(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := feedInPieces(t, comp, 1, InflateOptions{})
	if !bytes.Equal(got, src) {
		t.Fatalf("mismatch: %q", got)
	}
}

func TestSessionRandomChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range []string{"text", "random", "zeros", "jsonish"} {
		src := corpusInputs(t)[name]
		comp, err := Compress(src, Options{BlockSize: 32 << 10})
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(InflateOptions{})
		var out []byte
		off := 0
		for off < len(comp) {
			n := rng.Intn(5000) + 1
			if off+n > len(comp) {
				n = len(comp) - off
			}
			final := off+n == len(comp)
			got, err := s.Feed(comp[off:off+n], final)
			if err != nil {
				t.Fatalf("%s: feed: %v", name, err)
			}
			out = append(out, got...)
			off += n
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("%s: mismatch", name)
		}
	}
}

func TestSessionCrossBlockWindow(t *testing.T) {
	// Data whose matches cross block boundaries: the session window must
	// carry history between Feed commits.
	base := bytes.Repeat([]byte("windowdata0123456789"), 400)
	comp, err := Compress(base, Options{BlockSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	got := feedInPieces(t, comp, 111, InflateOptions{})
	if !bytes.Equal(got, base) {
		t.Fatal("cross-block window mismatch")
	}
}

func TestSessionStdlibInput(t *testing.T) {
	src := corpusInputs(t)["jsonish"]
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestCompression)
	fw.Write(src)
	fw.Close()
	got := feedInPieces(t, buf.Bytes(), 777, InflateOptions{})
	if !bytes.Equal(got, src) {
		t.Fatal("stdlib stream mismatch")
	}
}

func TestSessionTail(t *testing.T) {
	src := []byte("payload with trailer")
	comp, _ := Compress(src, Options{})
	withTrailer := append(append([]byte{}, comp...), 0xAA, 0xBB, 0xCC)
	s := NewSession(InflateOptions{})
	out, err := s.Feed(withTrailer, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("mismatch")
	}
	if tail := s.Tail(); !bytes.Equal(tail, []byte{0xAA, 0xBB, 0xCC}) {
		t.Fatalf("tail = % x", tail)
	}
}

func TestSessionTruncatedFinal(t *testing.T) {
	src := corpusInputs(t)["text"]
	comp, _ := Compress(src, Options{})
	s := NewSession(InflateOptions{})
	if _, err := s.Feed(comp[:len(comp)/2], true); err == nil {
		t.Fatal("truncated final feed accepted")
	}
}

func TestSessionDataAfterDone(t *testing.T) {
	comp, _ := Compress([]byte("x"), Options{})
	s := NewSession(InflateOptions{})
	if _, err := s.Feed(comp, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feed([]byte{1}, true); err == nil {
		t.Fatal("data after done accepted")
	}
}

func TestSessionOutputLimit(t *testing.T) {
	src := make([]byte, 200000)
	comp, _ := Compress(src, Options{})
	s := NewSession(InflateOptions{MaxOutput: 1000})
	if _, err := s.Feed(comp, true); err != ErrTooLarge {
		t.Fatalf("got %v", err)
	}
}

func TestSessionProducedCount(t *testing.T) {
	src := corpusInputs(t)["skewed"]
	comp, _ := Compress(src, Options{BlockSize: 8192})
	s := NewSession(InflateOptions{})
	var total int
	for off := 0; off < len(comp); off += 900 {
		end := off + 900
		if end > len(comp) {
			end = len(comp)
		}
		out, err := s.Feed(comp[off:end], end == len(comp))
		if err != nil {
			t.Fatal(err)
		}
		total += len(out)
	}
	if total != len(src) || s.Produced() != len(src) {
		t.Fatalf("produced %d/%d, want %d", total, s.Produced(), len(src))
	}
}

// A feed's cost must not grow with the number of blocks it holds: the
// reader starts at the committed byte (not at byte 0, skipping forward),
// and blocks decode behind the window in the session's scratch (no
// per-block window copy, no per-block tables).
func TestSessionFeedAllocsIndependentOfBlockCount(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog; "), 12000)
	allocs := func(blockSize int) float64 {
		comp, err := Compress(src, Options{Mode: ModeDynamic, BlockSize: blockSize})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			s := NewSession(InflateOptions{})
			out, err := s.Feed(comp, true)
			if err != nil || !bytes.Equal(out, src) {
				t.Fatalf("feed: %d bytes, %v", len(out), err)
			}
		})
	}
	few, many := allocs(256<<10), allocs(2<<10) // ~3 blocks vs ~270
	if many > few+40 {
		t.Fatalf("%v allocs over ~270 blocks vs %v over ~3: per-block allocation is back", many, few)
	}
}

// A Feed that stops inside a block is the ordinary case of a stream read
// in pieces, not an error path: the decode's "ran out of input" is a
// value the session turns into a retry, and building it costs nothing.
func TestSessionFeedShortOfABlockAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog; "), 3000)
	comp, err := Compress(src, Options{Mode: ModeDynamic, BlockSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 40, len(comp) / 3, len(comp) - 1} {
		s := NewSession(InflateOptions{})
		out, err := s.Feed(comp[:cut], false) // the whole blocks before the cut, if any
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := bytes.Clone(out)
		if n := testing.AllocsPerRun(20, func() {
			if out, err = s.FeedInto(out[:0], nil, false); err != nil || len(out) != 0 {
				t.Fatalf("cut %d: %d bytes, %v", cut, len(out), err)
			}
		}); n != 0 {
			t.Errorf("cut %d: a feed that ends inside the block allocates %v times, want 0", cut, n)
		}
		if out, err = s.Feed(comp[cut:], true); err != nil || !bytes.Equal(append(got, out...), src) {
			t.Fatalf("cut %d: the rest of the stream: %d bytes, %v", cut, len(out), err)
		}
	}
}

func BenchmarkSessionFeed(b *testing.B) {
	src := corpusInputs(b)["text"]
	comp, _ := Compress(src, Options{BlockSize: 16 << 10})
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		s := NewSession(InflateOptions{})
		for off := 0; off < len(comp); off += 4096 {
			end := off + 4096
			if end > len(comp) {
				end = len(comp)
			}
			if _, err := s.Feed(comp[off:end], end == len(comp)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
