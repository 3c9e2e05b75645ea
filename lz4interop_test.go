package nxzip

// lz4interop_test.go holds the LZ4 codec to an independent implementation
// in both directions through committed fixtures only: blocks the lz4
// command-line tool wrote at -1, -9 and -12 must decode to their
// plaintext through lz4.Decompress and through DecompressFormat on a P9
// and a z15 device, and the blocks lz4.Compress writes for the same
// plaintexts — which the tool decoded when the fixtures were made — must
// hash as recorded. lz4interop_gen_test.go (build tag lz4interop) writes
// the fixtures and MANIFEST.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/lz4"
)

const lz4InteropDir = "testdata/interop/lz4"

// lz4InteropInput is one fixture plaintext: four corpus classes whose
// blocks are as unlike as LZ4 blocks get (long matches in logs, short
// ones in source, a four-letter alphabet, one run) and small enough for
// the fixtures to stay under 512 KiB, each at a page, bench's codec_mix
// payload size and past the 64 KiB offset reach.
type lz4InteropInput struct {
	kind corpus.Kind
	size int
}

func (in lz4InteropInput) name() string { return fmt.Sprintf("%s-%d", in.kind, in.size) }

func (in lz4InteropInput) plain() []byte { return corpus.Generate(in.kind, in.size, int64(in.size)) }

func lz4Interop() []lz4InteropInput {
	var ins []lz4InteropInput
	for _, k := range []corpus.Kind{corpus.JSONLogs, corpus.Source, corpus.DNA, corpus.Zeros} {
		for _, n := range []int{4 << 10, 64 << 10, 300 << 10} {
			ins = append(ins, lz4InteropInput{k, n})
		}
	}
	return ins
}

func TestLZ4Interop(t *testing.T) {
	f, err := os.Open(filepath.Join(lz4InteropDir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plains := make(map[string][]byte)
	for _, in := range lz4Interop() {
		plains[in.name()] = in.plain()
	}
	p9, z15 := Open(P9()), Open(Z15())
	defer p9.Close()
	defer z15.Close()
	plainFor := func(t *testing.T, kind, size, sum string) []byte {
		t.Helper()
		plain, ok := plains[kind+"-"+size]
		if !ok {
			t.Fatalf("no fixture input %s-%s", kind, size)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(plain)); got != sum {
			t.Fatalf("corpus %s-%s hashes %s, recorded %s: the generator moved", kind, size, got, sum)
		}
		return plain
	}
	cli, ours := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		fs := strings.Fields(line)
		switch {
		case fs[0] == "cli" && len(fs) == 7:
			cli++
			plain := plainFor(t, fs[2], fs[3], fs[6])
			blk, err := os.ReadFile(filepath.Join(lz4InteropDir, fs[1]))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(blk)); got != fs[5] {
				t.Fatalf("%s hashes %s, recorded %s", fs[1], got, fs[5])
			}
			if got, err := lz4.Decompress(blk, len(plain)); err != nil || !bytes.Equal(got, plain) {
				t.Fatalf("%s: lz4.Decompress: %d bytes, err %v", fs[1], len(got), err)
			}
			for name, acc := range map[string]*Accelerator{"p9": p9, "z15": z15} {
				got, m, err := acc.DecompressFormat(FormatLZ4, blk, len(plain))
				if err != nil || !bytes.Equal(got, plain) || m.Degraded {
					t.Fatalf("%s on %s: %d bytes, err %v, degraded %v", fs[1], name, len(got), err, m != nil && m.Degraded)
				}
			}
		case fs[0] == "ours" && len(fs) == 5:
			ours++
			plain := plainFor(t, fs[1], fs[2], fs[4])
			if got := fmt.Sprintf("%x", sha256.Sum256(lz4.Compress(plain))); got != fs[3] {
				t.Fatalf("lz4.Compress of %s-%s hashes %s; the tool decoded the block that hashed %s", fs[1], fs[2], got, fs[3])
			}
		default:
			t.Fatalf("MANIFEST line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := len(lz4Interop()); cli != 3*want || ours != want {
		t.Fatalf("MANIFEST has %d tool blocks and %d of ours, want %d and %d", cli, ours, 3*want, want)
	}
}
