package nxzip

// reader_equiv_test.go holds the Reader to the serial member loop it had
// before its boundary finding changed: refPrimeSerial is that loop, kept
// as the test-only oracle, and for every stream below — whoever wrote it,
// whatever its length hints claim — Reader at any worker count must hand
// back the oracle's bytes or fail in the oracle's error class, with
// compress/gzip agreeing wherever the oracle succeeds.

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/topology"
)

// refDecompressMember and refPrimeSerial are the serial Reader of the
// commit before the member index (e4e5da5), verbatim but for taking their
// receivers as arguments.
func refDecompressMember(a *Accelerator, nctx *topology.Context, src []byte, budget int) ([]byte, int, *Metrics, error) {
	out, m, err := a.doNew(nctx, op{kind: opMember, name: "member-decompress", format: FormatGzip,
		src: src, maxOutput: max(budget, 1)})
	return out, m.InBytes, m, err
}

func refPrimeSerial(r *Reader, comp []byte) ([]byte, error) {
	limit := r.limit()
	var out []byte
	rest := comp
	for len(rest) > 0 {
		plain, consumed, m, err := refDecompressMember(r.acc, r.acc.nctx, rest, limit-len(out))
		if err != nil {
			return nil, err
		}
		r.addMetrics(m)
		out = append(out, plain...)
		if len(out) > limit {
			return nil, fmt.Errorf("nxzip: decompressed stream exceeds %d bytes", limit)
		}
		rest = rest[consumed:]
	}
	return out, nil
}

// readerErrClass is what a caller can tell apart about a failed read.
func readerErrClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case strings.Contains(err.Error(), "exceeds"):
		return "over the limit"
	case errors.Is(err, deflate.ErrBadMagic):
		return "bad framing"
	case errors.Is(err, deflate.ErrBadChecksum):
		return "bad checksum"
	case errors.Is(err, deflate.ErrBadLength):
		return "bad length"
	case errors.Is(err, deflate.ErrCorrupt):
		return "corrupt"
	}
	return "other: " + err.Error()
}

// checkReaderEqualsSerial is the one comparison the table and the fuzz
// target make. The classes may differ in one stated way: a stream whose
// hints and trailers claim more than MaxOutput is turned away as over the
// limit before any device work, where the serial loop — which decodes to
// find out — may meet a different fault first when the claim is forged.
// Either way the stream is refused. wellFormed says the stream came from
// an encoder, where compress/gzip must inflate whatever the loop does; on
// a fuzzed one it need not — this inflater takes incomplete Huffman codes
// the stdlib refuses (DESIGN 5n) — but what it does inflate must agree.
func checkReaderEqualsSerial(t *testing.T, acc *Accelerator, stream []byte, workers, maxOutput int, wellFormed bool) {
	t.Helper()
	oracle := acc.NewReader(nil)
	oracle.MaxOutput = maxOutput
	want, wantErr := refPrimeSerial(oracle, stream)

	r := acc.NewReader(bytes.NewReader(stream))
	r.Workers, r.MaxOutput = workers, maxOutput
	got, gotErr := io.ReadAll(r)
	// A Reader that failed stays failed: the source is drained, and a
	// second look at it would read as a clean end of an empty stream.
	for i := 0; gotErr != nil && i < 2; i++ {
		if n, again := r.Read(make([]byte, 1)); n != 0 || again != gotErr {
			t.Fatalf("workers=%d: Read after the failure: %d, %v; the failure was %v", workers, n, again, gotErr)
		}
	}

	gotClass, wantClass := readerErrClass(gotErr), readerErrClass(wantErr)
	if gotClass != wantClass && !(gotClass == "over the limit" && wantErr != nil) {
		t.Fatalf("workers=%d: error %v, serial loop %v", workers, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("workers=%d: %d bytes differ from the serial loop's %d", workers, len(got), len(want))
	}
	if r.Stats.OutBytes != len(want) || r.Stats.InBytes != len(stream) {
		t.Fatalf("workers=%d: Stats in/out %d/%d, stream is %d/%d", workers, r.Stats.InBytes, r.Stats.OutBytes, len(stream), len(want))
	}
	zr, err := gzip.NewReader(bytes.NewReader(stream))
	if len(stream) == 0 {
		if err != io.EOF {
			t.Fatalf("compress/gzip on the empty stream: %v", err)
		}
		return
	}
	var std []byte
	if err == nil {
		std, err = io.ReadAll(zr)
	}
	if err != nil && !wellFormed {
		return
	}
	if err != nil || !bytes.Equal(std, want) {
		t.Fatalf("compress/gzip disagrees with the serial loop: %d bytes, err %v", len(std), err)
	}
}

// stampMember gives a canonical member (10-byte header, FLG 0) the
// length subfield the writers stamp: FLG.FEXTRA, XLEN 8, 'N' 'X', SLEN 4,
// the member's whole encoded length. Built by hand so the table does not
// lean on the code it checks.
func stampMember(gz []byte) []byte {
	out := append([]byte{}, gz[:10]...)
	out[3] |= 1 << 2
	out = append(out, 8, 0, 'N', 'X', 4, 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(gz)+10))
	return append(out, gz[10:]...)
}

// bgzfMember is one BGZF block: FEXTRA holds 'B' 'C', SLEN 2, the block's
// whole length minus one.
func bgzfMember(t testing.TB, plain []byte) []byte {
	t.Helper()
	var body bytes.Buffer
	fw, err := flate.NewWriter(&body, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(plain)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	out := []byte{0x1F, 0x8B, 8, 4, 0, 0, 0, 0, 0, 0xFF, 6, 0, 'B', 'C', 2, 0}
	out = binary.LittleEndian.AppendUint16(out, uint16(18+body.Len()+8-1))
	out = append(out, body.Bytes()...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(plain))
	return binary.LittleEndian.AppendUint32(out, uint32(len(plain)))
}

// setHint rewrites a member's length hint to claim total bytes; false if
// the member carries none.
func setHint(m []byte, total int) bool {
	if len(m) < 20 || m[3]&(1<<2) == 0 {
		return false
	}
	switch string(m[12:16]) {
	case "NX\x04\x00":
		binary.LittleEndian.PutUint32(m[16:], uint32(total))
	case "BC\x02\x00":
		binary.LittleEndian.PutUint16(m[16:], uint16(total-1))
	default:
		return false
	}
	return true
}

// memberSink records each Write: the writers hand the sink one member a
// call.
type memberSink struct{ members [][]byte }

func (s *memberSink) Write(p []byte) (int, error) {
	s.members = append(s.members, bytes.Clone(p))
	return len(p), nil
}

func (s *memberSink) bytes() []byte { return bytes.Join(s.members, nil) }

// readerStream is a stream as the list of its members (a foreign stream
// whose boundaries the table does not need is one entry).
type readerStream struct {
	name    string
	members [][]byte
	forged  bool // a hint is wrong as built
}

func (s readerStream) bytes() []byte { return bytes.Join(s.members, nil) }

func readerStreams(t testing.TB, acc *Accelerator) []readerStream {
	t.Helper()
	src := corpus.Generate(corpus.JSONLogs, 20<<10, 19)
	var streams []readerStream
	for _, chunk := range []int{2 << 10, 6 << 10, 20 << 10, 64 << 10, 0} {
		in := src
		if chunk == 0 {
			in = nil // the empty stream: one empty member
		}
		for _, parallel := range []bool{false, true} {
			var sink memberSink
			var w io.WriteCloser
			name := fmt.Sprintf("Writer/chunk%d", chunk)
			if parallel {
				w, name = acc.NewParallelWriterChunk(&sink, chunk, 3), "Parallel"+name
			} else {
				w = acc.NewWriterChunk(&sink, chunk)
			}
			if _, err := w.Write(in); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			streams = append(streams, readerStream{name: name, members: sink.members})
		}
	}

	// One-shot members stamped here, not by a writer.
	var stamped [][]byte
	for off := 0; off < len(src); off += 7000 {
		gz, _, err := acc.CompressGzip(src[off:min(off+7000, len(src))])
		if err != nil {
			t.Fatal(err)
		}
		stamped = append(stamped, stampMember(gz))
	}
	streams = append(streams, readerStream{name: "hand-stamped", members: stamped})

	// A hint that lands on a header which is only payload: a stored
	// member whose plaintext embeds a whole gzip member, a small number in
	// the four bytes before it where the hop looks for ISIZE.
	inner, err := deflate.CompressGzip([]byte("not a member of this stream"), deflate.Options{Mode: deflate.ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	payload := append(bytes.Repeat([]byte{'.'}, 100), 5, 0, 0, 0)
	payload = append(append(payload, inner...), "and the rest of the stored block"...)
	outer, err := deflate.CompressGzip(payload, deflate.Options{Mode: deflate.ModeStored})
	if err != nil {
		t.Fatal(err)
	}
	outer = stampMember(outer)
	setHint(outer, bytes.Index(outer, inner))
	streams = append(streams, readerStream{name: "hint at a header inside a stored block", members: [][]byte{outer, stamped[0]}, forged: true})

	old, err := os.ReadFile("testdata/writer_e4e5da5.gz")
	if err != nil {
		t.Fatal(err)
	}
	streams = append(streams, readerStream{name: "written before the index", members: [][]byte{old}})

	var std bytes.Buffer
	zw := gzip.NewWriter(&std)
	for i, hdr := range []gzip.Header{{}, {Name: "b.json", Comment: "second"}, {Extra: []byte{1, 2, 3, 4, 5}}, {Extra: []byte("ZZ\x02\x00hi")}} {
		if i > 0 {
			zw.Reset(&std)
		}
		zw.Header = hdr
		zw.Write(src[i*5000 : (i+1)*5000])
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	streams = append(streams, readerStream{name: "compress/gzip", members: [][]byte{std.Bytes()}})

	bgzf := [][]byte{bgzfMember(t, src[:9000]), bgzfMember(t, src[9000:]), bgzfMember(t, nil)}
	streams = append(streams, readerStream{name: "BGZF", members: bgzf})

	var forward, backward [][]byte
	for i := range streams {
		forward = append(forward, streams[i].members...)
		backward = append(backward, streams[len(streams)-1-i].members...)
	}
	return append(streams, readerStream{name: "all, in order", members: forward, forged: true},
		readerStream{name: "all, reversed", members: backward, forged: true})
}

// readerCase is one stream as the Reader meets it.
type readerCase struct {
	name      string
	stream    []byte
	maxOutput int // 0 = the default
	// members is how many members an intact stream holds when every one
	// of them carries a hint, 0 otherwise.
	members int
}

func readerCases(t testing.TB, acc *Accelerator) []readerCase {
	t.Helper()
	var cases []readerCase
	for _, s := range readerStreams(t, acc) {
		intact := s.bytes()
		add := func(name string, stream []byte) {
			cases = append(cases, readerCase{name: s.name + "/" + name, stream: stream})
		}
		hinted := 0
		for _, m := range s.members {
			if setHint(bytes.Clone(m), len(m)) {
				hinted++
			}
		}
		cases = append(cases, readerCase{name: s.name + "/intact", stream: intact})
		if hinted == len(s.members) && !s.forged {
			cases[len(cases)-1].members = hinted
		}

		// Hints. Every one off by one; then one member's, the middle one
		// that has any, pointing inside itself and past the end.
		tamper := func(name string, only int, claim func(m []byte) int) {
			members := make([][]byte, len(s.members))
			changed := false
			for i, m := range s.members {
				members[i] = bytes.Clone(m)
				if only < 0 || i == only {
					changed = setHint(members[i], claim(m)) || changed
				}
			}
			if changed {
				add(name, bytes.Join(members, nil))
			}
		}
		tamper("hints+1", -1, func(m []byte) int { return len(m) + 1 })
		tamper("hints-1", -1, func(m []byte) int { return len(m) - 1 })
		mid := len(s.members) / 2
		tamper("hint mid-member", mid, func(m []byte) int { return len(m) / 2 })
		tamper("hint inside the header", mid, func(m []byte) int { return 12 })
		tamper("hint past EOF", mid, func(m []byte) int { return len(m) + len(intact) })
		tamper("hint zero", mid, func(m []byte) int { return 0 })
		if mid+1 < len(s.members) {
			tamper("hint spanning two members", mid, func(m []byte) int { return len(m) + len(s.members[mid+1]) })
		}

		// ISIZE of the middle member (of the last, when there is one entry).
		end := 0
		for _, m := range s.members[:mid+1] {
			end += len(m)
		}
		isize := binary.LittleEndian.Uint32(intact[end-4:])
		for name, v := range map[string]uint32{"small": isize - 1, "zero": 0, "large": isize + 1000, "implausible": 0xFFFFFFF0} {
			if v == isize {
				continue
			}
			forged := bytes.Clone(intact)
			binary.LittleEndian.PutUint32(forged[end-4:], v)
			add("ISIZE "+name, forged)
		}

		for _, cut := range []int{1, 4, 8, 9, len(intact) / 2, len(intact) - 5} {
			if cut < len(intact) {
				add(fmt.Sprintf("cut %d", cut), intact[:len(intact)-cut])
			}
		}
		flipped := bytes.Clone(intact)
		flipped[len(flipped)/2] ^= 0x10
		add("flipped bit", flipped)
		add("junk after", append(bytes.Clone(intact), "JUNK"...))

		plain, err := GunzipMulti(intact)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, d := range []int{-1, 0, 1} {
			if limit := len(plain) + d; limit > 0 {
				cases = append(cases, readerCase{name: fmt.Sprintf("%s/MaxOutput len%+d", s.name, d), stream: intact, maxOutput: limit})
			}
		}
	}
	slices.SortFunc(cases, func(a, b readerCase) int { return strings.Compare(a.name, b.name) })
	return cases
}

func TestReaderEqualsSerial(t *testing.T) {
	cfg := P9()
	cfg.Device.Engines = 4
	acc := Open(cfg)
	defer acc.Close()
	for _, tc := range readerCases(t, acc) {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				before := deflate.InflatePasses()
				checkReaderEqualsSerial(t, acc, tc.stream, workers, tc.maxOutput, true)
				// The oracle made one pass a member; so must the Reader.
				if passes := deflate.InflatePasses() - before; tc.members > 0 && passes != 2*int64(tc.members) {
					t.Fatalf("workers=%d: %d inflate passes over %d hinted members and their oracle's %d",
						workers, passes, tc.members, tc.members)
				}
			}
		})
	}
}

func FuzzReaderEqualsSerial(f *testing.F) {
	cfg := P9()
	cfg.Device.Engines = 4
	acc := Open(cfg)
	defer acc.Close()
	for i, tc := range readerCases(f, acc) {
		f.Add(tc.stream, uint8(i), uint32(tc.maxOutput))
	}
	f.Fuzz(func(t *testing.T, stream []byte, workers uint8, maxOutput uint32) {
		// A budget the fuzzer cannot raise past 1 MiB: both readers hold
		// what they decode.
		limit := int(maxOutput % (1 << 20))
		if limit == 0 {
			limit = 1 << 20
		}
		checkReaderEqualsSerial(t, acc, stream, int(workers%5), limit, false)
	})
}
