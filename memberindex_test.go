package nxzip

// memberindex_test.go: what the writers' length stamp is allowed to
// change — ten header bytes a member, accounted — and what it is not: the
// member the engine made, the cycles it took, the stream any gzip reader
// inflates.

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"nxzip/internal/corpus"
)

// TestWriterMembersAreStampedOneShots: member for member, both writers
// emit exactly the one-shot CompressGzip of the chunk with the subfield
// set in, for exactly the one-shot's device cycles — the engine compresses
// the same members in the same cycles, the index is host framing.
func TestWriterMembersAreStampedOneShots(t *testing.T) {
	const chunk = 24 << 10
	src := corpus.Generate(corpus.Source, 5*chunk+1000, 31)
	for _, mode := range []TableMode{TableDynamic, TableFixed} {
		open := func() *Accelerator {
			cfg := P9()
			cfg.TableMode = mode
			return Open(cfg)
		}
		oneShots, serial, parallel := open(), open(), []*Accelerator{open(), open()}
		var want [][]byte
		var wantCycles []int64
		for off := 0; off < len(src); off += chunk {
			gz, m, err := oneShots.CompressGzip(src[off:min(off+chunk, len(src))])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, stampMember(gz))
			wantCycles = append(wantCycles, m.DeviceCycles)
		}

		// The serial Writer submits as a chunk fills, so feeding it a chunk
		// at a time exposes each member's accounting.
		var sink memberSink
		w := serial.NewWriterChunk(&sink, chunk)
		for i, off := 0, 0; off < len(src); i, off = i+1, off+chunk {
			before := w.Stats.DeviceCycles
			if _, err := w.Write(src[off:min(off+chunk, len(src))]); err != nil {
				t.Fatal(err)
			}
			if off+chunk > len(src) {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got := w.Stats.DeviceCycles - before; got != wantCycles[i] {
				t.Fatalf("mode %v member %d: %d device cycles, the one-shot took %d", mode, i, got, wantCycles[i])
			}
		}
		checkMembers := func(name string, got [][]byte, stats Metrics) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("mode %v %s: %d members, want %d", mode, name, len(got), len(want))
			}
			sunk := 0
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("mode %v %s member %d is not the stamped one-shot", mode, name, i)
				}
				sunk += len(got[i])
			}
			if stats.OutBytes != sunk || stats.InBytes != len(src) {
				t.Fatalf("mode %v %s: Stats in/out %d/%d, the sink received %d for %d", mode, name, stats.InBytes, stats.OutBytes, sunk, len(src))
			}
			zr, err := gzip.NewReader(bytes.NewReader(bytes.Join(got, nil)))
			if err != nil {
				t.Fatal(err)
			}
			if plain, err := io.ReadAll(zr); err != nil || !bytes.Equal(plain, src) {
				t.Fatalf("mode %v %s: compress/gzip does not inflate the stamped stream: %v", mode, name, err)
			}
			if string(zr.Extra[:4]) != "NX\x04\x00" || len(zr.Extra) != 8 {
				t.Fatalf("mode %v %s: FEXTRA % x", mode, name, zr.Extra)
			}
		}
		checkMembers("Writer", sink.members, w.Stats)

		// Which worker's window a chunk goes through decides how warm its
		// translations are, so only one worker repeats the one-shots' cycles.
		var total int64
		for _, c := range wantCycles {
			total += c
		}
		for _, workers := range []int{1, 3} {
			var psink memberSink
			pw := parallel[workers/2].NewParallelWriterChunk(&psink, chunk, workers)
			if _, err := pw.Write(src); err != nil {
				t.Fatal(err)
			}
			if err := pw.Close(); err != nil {
				t.Fatal(err)
			}
			checkMembers("ParallelWriter", psink.members, pw.Stats)
			if workers == 1 && pw.Stats.DeviceCycles != total {
				t.Fatalf("mode %v: ParallelWriter took %d device cycles, the one-shots %d", mode, pw.Stats.DeviceCycles, total)
			}
		}
		for _, acc := range append(parallel, oneShots, serial) {
			acc.Close()
		}
	}
}
