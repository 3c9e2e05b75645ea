package deflate

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"nxzip/internal/checksum"
	"nxzip/internal/corpus"
)

// The framings a follower rides: a raw stream (the caller finishes it), and
// the three framed decodes, which check their trailer against its sums.
const (
	wrapRaw = iota
	wrapGzip
	wrapGzipTail // first member of two
	wrapZlib
	wrapCount
)

// followerRun is what one decode hands back: the bytes, the CRC-32 and
// Adler-32 of the output, the input consumed and the error, as text.
type followerRun struct {
	out         []byte
	crc, adler  uint32
	consumed    int
	err         string
	followerRan bool
}

// decodeWith decodes src framed as wrap. With fol nil it is today's path:
// the framed decodes compute the trailer's checksum, and the other is
// taken here. With a follower, both come from it.
func decodeWith(wrap int, src []byte, maxOut int, dst []byte, fol *checksum.Follower) followerRun {
	opts := InflateOptions{MaxOutput: maxOut, Dst: dst, Follower: fol}
	var (
		r          followerRun
		err        error
		crc, adler uint32
	)
	switch wrap {
	case wrapRaw:
		r.out, r.consumed, err = DecompressTail(src, opts)
	case wrapGzip:
		r.out, crc, err = DecompressGzip(src, opts)
	case wrapGzipTail:
		r.out, r.consumed, crc, err = DecompressGzipTail(src, opts)
	case wrapZlib:
		r.out, adler, err = DecompressZlib(src, opts)
	}
	if err != nil {
		r.err = err.Error()
	} else if fol != nil {
		r.crc, r.adler = fol.Finish(r.out)
		if (wrap == wrapGzip || wrap == wrapGzipTail) && crc != r.crc || wrap == wrapZlib && adler != r.adler {
			r.err = fmt.Sprintf("returned %08x/%08x, follower %08x/%08x", crc, adler, r.crc, r.adler)
		}
	} else {
		r.crc, r.adler = checksum.Sum32(r.out), checksum.SumAdler32(r.out)
		if (wrap == wrapGzip || wrap == wrapGzipTail) && crc != r.crc || wrap == wrapZlib && adler != r.adler {
			r.err = fmt.Sprintf("returned %08x/%08x, want %08x/%08x", crc, adler, r.crc, r.adler)
		}
	}
	if fol != nil {
		r.followerRan = fol.Release()
	}
	return r
}

// checkFollowerEqualsInline decodes src three ways — no follower, a
// follower whose goroutine never starts, one whose goroutine starts at the
// first publish — each into a fresh Dst of dstCap (nil when negative), and
// requires the same bytes, checksums, consumed input and error. The
// started follower runs only once a stripe of output is final, and has run
// by the end of a decode of two stripes or more.
func checkFollowerEqualsInline(t testing.TB, name string, wrap int, src []byte, maxOut, dstCap int) {
	t.Helper()
	dst := func() []byte {
		if dstCap < 0 {
			return nil
		}
		return make([]byte, 0, dstCap)
	}
	want := decodeWith(wrap, src, maxOut, dst(), nil)
	never := decodeWith(wrap, src, maxOut, dst(), checksum.NewFollower(func() bool { return false }))
	started := decodeWith(wrap, src, maxOut, dst(), checksum.NewFollower(func() bool { return true }))
	for _, c := range []struct {
		how string
		got followerRun
	}{{"never started", never}, {"started", started}} {
		g := c.got
		if g.err != want.err || !bytes.Equal(g.out, want.out) || g.crc != want.crc || g.adler != want.adler || g.consumed != want.consumed {
			t.Fatalf("%s, follower %s: %d bytes, crc %08x, adler %08x, consumed %d, error %q; inline %d bytes, %08x, %08x, %d, %q",
				name, c.how, len(g.out), g.crc, g.adler, g.consumed, g.err, len(want.out), want.crc, want.adler, want.consumed, want.err)
		}
	}
	if never.followerRan {
		t.Fatalf("%s: a follower whose start said no ran", name)
	}
	if n := len(want.out); want.err == "" && (started.followerRan && n < followStripe || !started.followerRan && n > 2*followStripe) {
		t.Fatalf("%s: %d bytes out, follower ran %v", name, n, started.followerRan)
	}
}

// frame wraps a raw stream and its plaintext as wrap.
func frame(wrap int, raw, plain []byte) []byte {
	switch wrap {
	case wrapGzip:
		return GzipWrap(raw, plain)
	case wrapGzipTail:
		return append(GzipWrap(raw, plain), GzipWrap([]byte{3, 0}, nil)...)
	case wrapZlib:
		return ZlibWrap(raw, plain)
	}
	return append(bytes.Clone(raw), 0xDE, 0xAD) // trailing bytes: consumed is not len(src)
}

// followerRow is one decode of TestFollowerEqualsInline.
type followerRow struct {
	name   string
	wrap   int
	src    []byte
	maxOut int
	dstCap int
}

// followerRows: every corpus kind at a stripe less one byte, a stripe, a
// stripe and a byte in each framing, Dst nil or roomy by turns, and at
// 1 MiB + 7 in one framing (a kind's index picks it) with both; budgets
// that trip a symbol before and after a stripe; streams corrupted after k
// stripes; gzip and zlib trailers with a wrong CRC, ISIZE or Adler-32.
// They are built once for the test and the fuzz target's seeds.
var followerRows = sync.OnceValues(func() ([]followerRow, error) {
	var rows []followerRow
	sizes := []int{followStripe - 1, followStripe, followStripe + 1, 1<<20 + 7}
	modes := []BlockMode{ModeFixed, ModeStored, ModeDynamic}
	var big []byte // the 1 MiB text row's stream, for the damage rows
	var bigPlain []byte
	for ki, k := range corpus.Kinds() {
		for i, n := range sizes {
			plain := corpus.Generate(k, n, 29)
			raw, err := compressRow(plain, i, modes)
			if err != nil {
				return nil, err
			}
			if k == corpus.Text && n > followStripe+1 {
				big, bigPlain = raw, plain
			}
			for wrap := 0; wrap < wrapCount; wrap++ {
				if n > followStripe+1 && wrap != ki%wrapCount {
					continue
				}
				for j, dstCap := range []int{-1, n + 4096} {
					if n <= followStripe+1 && (ki+i+wrap+j)%2 == 0 {
						continue
					}
					rows = append(rows, followerRow{fmt.Sprintf("%s/%d/wrap%d/cap%d", k, n, wrap, dstCap), wrap, frame(wrap, raw, plain), 0, dstCap})
				}
			}
		}
	}
	for wrap := 0; wrap < wrapCount; wrap++ {
		src := frame(wrap, big, bigPlain)
		for _, maxOut := range []int{followStripe - 1, followStripe + 1, 3*followStripe + 1} {
			rows = append(rows, followerRow{fmt.Sprintf("budget%d/wrap%d", maxOut, wrap), wrap, src, maxOut, -1})
		}
		// A byte a little past the kth sixteenth of the stream is a little
		// past the kth stripe of its output.
		for _, k := range []int{1, 3, 8} {
			bad := bytes.Clone(src)
			bad[len(bad)*k/16+40] ^= 0x5A
			rows = append(rows, followerRow{fmt.Sprintf("corrupt%d/wrap%d", k, wrap), wrap, bad, 0, len(bigPlain)})
		}
	}
	gz, zl := frame(wrapGzip, big, bigPlain), frame(wrapZlib, big, bigPlain)
	badCRC, badSize, badAdler := bytes.Clone(gz), bytes.Clone(gz), bytes.Clone(zl)
	badCRC[len(gz)-8] ^= 1
	binary.LittleEndian.PutUint32(badSize[len(gz)-4:], uint32(len(bigPlain)+1))
	badAdler[len(zl)-1] ^= 1
	rows = append(rows,
		followerRow{"trailer-crc", wrapGzip, badCRC, 0, -1},
		followerRow{"trailer-crc/tail", wrapGzipTail, badCRC, 0, -1},
		followerRow{"trailer-isize", wrapGzip, badSize, 0, -1},
		followerRow{"trailer-isize/tail", wrapGzipTail, badSize, 0, len(bigPlain)},
		followerRow{"trailer-adler", wrapZlib, badAdler, 0, -1})
	return rows, nil
})

// compressRow encodes the ith size's plaintext in one of this package's
// block modes, or, past them — the megabyte rows — with compress/flate,
// whose blocks are its own and which is quicker under the race detector.
func compressRow(plain []byte, i int, modes []BlockMode) ([]byte, error) {
	if i < len(modes) {
		return Compress(plain, Options{Level: 1, Mode: modes[i], BlockSize: 48 << 10})
	}
	var b bytes.Buffer
	w, err := flate.NewWriter(&b, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(plain); err != nil {
		return nil, err
	}
	err = w.Close()
	return b.Bytes(), err
}

// TestFollowerEqualsInline: a decode whose checksums a follower's goroutine
// takes beside it gives what one that sums inline gives — bytes, CRC-32,
// Adler-32, consumed input and error — and the same as a decode with no
// follower. Run under -race, it also holds the publish protocol to the
// memory model: the goroutine reads only bytes the decoder has finished.
func TestFollowerEqualsInline(t *testing.T) {
	rows, err := followerRows()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		checkFollowerEqualsInline(t, r.name, r.wrap, r.src, r.maxOut, r.dstCap)
	}
}

// FuzzFollowerEqualsInline is TestFollowerEqualsInline on any stream,
// framing, budget and Dst. It is seeded from every fifth of the test's
// rows of a stripe or so of output (the megabyte rows would slow every
// execution): they come four to a kind and size, so the seeds turn through
// kinds, sizes, framings and Dst.
func FuzzFollowerEqualsInline(f *testing.F) {
	rows, err := followerRows()
	if err != nil {
		f.Fatal(err)
	}
	small := 0
	for _, r := range rows {
		if len(r.src) >= 256<<10 {
			continue
		}
		if small%5 == 0 {
			f.Add(r.src, uint8(r.wrap), uint32(r.maxOut), int32(r.dstCap))
		}
		small++
	}
	f.Fuzz(func(t *testing.T, src []byte, wrap uint8, maxOut uint32, dstCap int32) {
		if maxOut == 0 || maxOut > 4<<20 {
			maxOut = 4 << 20
		}
		checkFollowerEqualsInline(t, "fuzz", int(wrap%wrapCount), src, int(maxOut), int(min(dstCap, 4<<20)))
	})
}
