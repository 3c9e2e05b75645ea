package nxzip

// multimember_test.go: table-driven coverage of multi-member gzip decode
// (empty members, optional header fields, truncated tails), the
// one-inflate-pass-per-member regression guard, and the decompression
// bomb budget.

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
)

// stdlibMember builds one gzip member with optional header fields set.
func stdlibMember(t *testing.T, payload []byte, hdr *gzip.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if hdr != nil {
		zw.Name = hdr.Name
		zw.Extra = hdr.Extra
		zw.Comment = hdr.Comment
	}
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func accMember(t *testing.T, acc *Accelerator, payload []byte) []byte {
	t.Helper()
	gz, _, err := acc.CompressGzip(payload)
	if err != nil {
		t.Fatal(err)
	}
	return gz
}

func TestMultiMemberStreams(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()

	payload := []byte("the quick brown fox jumps over the lazy dog, repeatedly: ")
	big := bytes.Repeat(payload, 2000)

	type testCase struct {
		name    string
		stream  func(t *testing.T) []byte
		want    []byte
		wantErr string // substring of the expected error ("" = success)
	}
	cases := []testCase{
		{
			name: "empty members between data",
			stream: func(t *testing.T) []byte {
				var s []byte
				s = append(s, accMember(t, acc, nil)...)
				s = append(s, accMember(t, acc, []byte("hello "))...)
				s = append(s, accMember(t, acc, nil)...)
				s = append(s, accMember(t, acc, []byte("world"))...)
				s = append(s, accMember(t, acc, nil)...)
				return s
			},
			want: []byte("hello world"),
		},
		{
			name: "only empty members",
			stream: func(t *testing.T) []byte {
				var s []byte
				for i := 0; i < 4; i++ {
					s = append(s, accMember(t, acc, nil)...)
				}
				return s
			},
			want: nil,
		},
		{
			name: "FNAME and FCOMMENT headers",
			stream: func(t *testing.T) []byte {
				var s []byte
				s = append(s, stdlibMember(t, []byte("hello "), &gzip.Header{Name: "a.txt", Comment: "first"})...)
				s = append(s, stdlibMember(t, []byte("world"), &gzip.Header{Name: "b.txt"})...)
				return s
			},
			want: []byte("hello world"),
		},
		{
			name: "FEXTRA header",
			stream: func(t *testing.T) []byte {
				var s []byte
				s = append(s, stdlibMember(t, []byte("ex"), &gzip.Header{Extra: []byte{1, 2, 3, 4, 5}})...)
				s = append(s, accMember(t, acc, []byte("tra"))...)
				return s
			},
			want: []byte("extra"),
		},
		{
			name: "mixed producers large",
			stream: func(t *testing.T) []byte {
				var s []byte
				s = append(s, accMember(t, acc, big)...)
				s = append(s, stdlibMember(t, big, &gzip.Header{Name: "big"})...)
				return s
			},
			want: append(append([]byte{}, big...), big...),
		},
		{
			name: "truncated trailer",
			stream: func(t *testing.T) []byte {
				s := accMember(t, acc, []byte("data"))
				return s[:len(s)-3] // cut into the CRC/ISIZE trailer
			},
			wantErr: "truncated",
		},
		{
			name: "truncated mid-stream",
			stream: func(t *testing.T) []byte {
				var s []byte
				s = append(s, accMember(t, acc, big)...)
				tail := accMember(t, acc, big)
				s = append(s, tail[:len(tail)/2]...)
				return s
			},
			wantErr: "corrupt",
		},
		{
			name: "junk after members",
			stream: func(t *testing.T) []byte {
				return append(accMember(t, acc, []byte("ok")), "JUNK"...)
			},
			wantErr: "bad stream magic",
		},
	}

	for _, tc := range cases {
		stream := tc.stream(t)
		for _, workers := range []int{1, 4} {
			name := tc.name
			if workers > 1 {
				name += "/parallel"
			}
			t.Run(name, func(t *testing.T) {
				r := acc.NewReader(bytes.NewReader(stream))
				r.Workers = workers
				got, err := io.ReadAll(r)
				if tc.wantErr != "" {
					if err == nil {
						t.Fatalf("want error containing %q, got nil", tc.wantErr)
					}
					if !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("error %q does not contain %q", err, tc.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, tc.want) {
					t.Fatalf("decoded %d bytes, want %d", len(got), len(tc.want))
				}
			})
		}
	}
}

// TestReaderSinglePassPerMember is the decode-twice regression guard:
// priming a k-member stream must cost exactly k inflate passes (the old
// splitGzipMember walked every member once just to find its end, then
// DecompressGzip inflated the same bytes again).
func TestReaderSinglePassPerMember(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 1<<20, 3)
	const members = 8
	var comp bytes.Buffer
	w := acc.NewWriterChunk(&comp, len(src)/members+1)
	w.Write(src)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	before := deflate.InflatePasses()
	r := acc.NewReader(bytes.NewReader(comp.Bytes()))
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	passes := deflate.InflatePasses() - before
	if !bytes.Equal(got, src) {
		t.Fatal("round-trip mismatch")
	}
	if passes != members {
		t.Fatalf("decoding %d members took %d inflate passes, want exactly %d", members, passes, members)
	}
}

// TestReaderBomb: a single member expanding far past MaxOutput must fail
// during its decode, before the oversized plaintext is buffered.
func TestReaderBomb(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	// 64 MiB of zeros compresses to a few hundred KiB: a classic bomb.
	bomb := accMember(t, acc, make([]byte, 64<<20))
	t.Logf("bomb member: %d bytes compressed, 64 MiB plain", len(bomb))

	for _, workers := range []int{1, 4} {
		r := acc.NewReader(bytes.NewReader(bomb))
		r.MaxOutput = 1 << 20
		r.Workers = workers
		_, err := io.ReadAll(r)
		if err == nil {
			t.Fatalf("workers=%d: bomb accepted", workers)
		}
		if !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("workers=%d: unexpected error %q", workers, err)
		}
		// Nothing near the bomb's size may have been buffered or charged.
		if r.Stats.OutBytes > 1<<20 {
			t.Fatalf("workers=%d: %d output bytes accounted despite limit", workers, r.Stats.OutBytes)
		}
	}
}

// TestReaderBombAccumulated: members that individually fit must still
// trip the limit when their sum exceeds it.
func TestReaderBombAccumulated(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	member := accMember(t, acc, make([]byte, 1<<20))
	var stream []byte
	for i := 0; i < 4; i++ {
		stream = append(stream, member...)
	}
	for _, workers := range []int{1, 4} {
		r := acc.NewReader(bytes.NewReader(stream))
		r.MaxOutput = 5 << 19 // 2.5 MiB, fails inside/after the third member
		r.Workers = workers
		if _, err := io.ReadAll(r); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("workers=%d: accumulated bomb: %v", workers, err)
		}
	}
}

// TestParallelReaderBombNoDeviceWork: a stream whose members carry their
// lengths and claim more plaintext than MaxOutput is turned away before a
// single decompression request reaches the engines. (A bomb with no index
// — TestReaderBomb's — gets the serial loop's guarantee at any worker
// count: it fails inside its first decode, with at most MaxOutput bytes
// produced.)
func TestParallelReaderBombNoDeviceWork(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	var bomb bytes.Buffer
	w := acc.NewWriterChunk(&bomb, 8<<20)
	if _, err := w.Write(make([]byte, 32<<20)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	before := acc.Device().Engine(0).Counters().Requests
	for _, workers := range []int{1, 4} {
		r := acc.NewParallelReader(bytes.NewReader(bomb.Bytes()), workers)
		r.MaxOutput = 20 << 20 // the third member's claim crosses it
		if _, err := io.ReadAll(r); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("workers=%d: indexed bomb: %v", workers, err)
		}
	}
	if after := acc.Device().Engine(0).Counters().Requests; after != before {
		t.Fatalf("%d decompression requests reached the engine before the index rejected the bomb", after-before)
	}
}

// TestMaxOutputExactFit: a stream whose size equals the limit must decode.
func TestMaxOutputExactFit(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 1<<20, 6)
	var comp bytes.Buffer
	w := acc.NewWriterChunk(&comp, 256<<10)
	w.Write(src)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		r := acc.NewReader(bytes.NewReader(comp.Bytes()))
		r.MaxOutput = len(src)
		r.Workers = workers
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("workers=%d: exact-fit stream rejected: %v", workers, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("workers=%d: mismatch", workers)
		}
	}
}
