// Command nxverify is the repository's differential verification harness:
// it cross-checks every encoder/decoder pair in this codebase against
// Go's standard library on randomized workloads and prints a pass/fail
// summary. It exists so the correctness claims in README.md can be
// re-established in one command on any machine:
//
//	go run ./cmd/nxverify -trials 200 -seed 42
//
// Checks per trial:
//
//	sw-enc/std-dec    our software DEFLATE decoded by compress/flate
//	hw-enc/std-dec    the accelerator model's gzip decoded by compress/gzip
//	std-enc/our-dec   stdlib flate/gzip streams decoded by our inflater
//	session           chunked Session decode equals one-shot
//	842               842 round-trip
//	checksums         CRC32/Adler-32 equality with hash/crc32, hash/adler32
package main

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"flag"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"io"
	"math/rand"
	"os"

	"nxzip"
	"nxzip/internal/checksum"
	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/x842"
)

type tally struct {
	name string
	runs int
	fail int
	note string
}

func main() {
	trials := flag.Int("trials", 100, "randomized trials per check")
	seed := flag.Int64("seed", 1, "rng seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	acc := nxzip.Open(nxzip.P9())
	defer acc.Close()
	// The stream check runs on a device with a second engine, so the
	// segments of its one Write are in flight side by side.
	twoEngines := nxzip.P9()
	twoEngines.Device.Engines = 2
	streamAcc := nxzip.Open(twoEngines)
	defer streamAcc.Close()

	checks := []*tally{
		{name: "sw-enc/std-dec"},
		{name: "hw-enc/std-dec"},
		{name: "std-enc/our-dec"},
		{name: "session=oneshot"},
		{name: "842 roundtrip"},
		{name: "checksums"},
		{name: "stream w/r"},
		{name: "dict fdict"},
		{name: "parallel pigz"},
	}

	kinds := corpus.Kinds()
	for i := 0; i < *trials; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		size := rng.Intn(256<<10) + 1
		src := corpus.Generate(kind, size, rng.Int63())

		run(checks[0], func() bool {
			level := rng.Intn(9) + 1
			comp, err := deflate.Compress(src, deflate.Options{Level: level})
			if err != nil {
				return false
			}
			got, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
			return err == nil && bytes.Equal(got, src)
		})

		run(checks[1], func() bool {
			gz, _, err := acc.CompressGzip(src)
			if err != nil {
				return false
			}
			zr, err := gzip.NewReader(bytes.NewReader(gz))
			if err != nil {
				return false
			}
			got, err := io.ReadAll(zr)
			return err == nil && bytes.Equal(got, src)
		})

		run(checks[2], func() bool {
			var buf bytes.Buffer
			fw, _ := flate.NewWriter(&buf, rng.Intn(10))
			fw.Write(src)
			fw.Close()
			got, err := deflate.Decompress(buf.Bytes(), deflate.InflateOptions{})
			return err == nil && bytes.Equal(got, src)
		})

		run(checks[3], func() bool {
			comp, err := deflate.Compress(src, deflate.Options{BlockSize: 16 << 10})
			if err != nil {
				return false
			}
			s := deflate.NewSession(deflate.InflateOptions{})
			var out []byte
			chunk := rng.Intn(4096) + 1
			for off := 0; off < len(comp); off += chunk {
				end := off + chunk
				if end > len(comp) {
					end = len(comp)
				}
				o, err := s.Feed(comp[off:end], end == len(comp))
				if err != nil {
					return false
				}
				out = append(out, o...)
			}
			return bytes.Equal(out, src)
		})

		run(checks[4], func() bool {
			comp := x842.Compress(src)
			got, err := x842.Decompress(comp, 0)
			return err == nil && bytes.Equal(got, src)
		})

		run(checks[5], func() bool {
			return checksum.Sum32(src) == crc32.ChecksumIEEE(src) &&
				checksum.SumAdler32(src) == adler32.Checksum(src)
		})

		run(checks[6], func() bool {
			var gzb bytes.Buffer
			w := streamAcc.NewStreamWriterChunk(&gzb, rng.Intn(64<<10)+4096)
			if _, err := w.Write(src); err != nil {
				return false
			}
			if err := w.Close(); err != nil {
				return false
			}
			sr := streamAcc.NewStreamReader(bytes.NewReader(gzb.Bytes()), len(src)+1024)
			got, err := io.ReadAll(sr)
			if err != nil || !bytes.Equal(got, src) {
				return false
			}
			// stdlib agrees.
			zr, err := gzip.NewReader(bytes.NewReader(gzb.Bytes()))
			if err != nil {
				return false
			}
			sgot, err := io.ReadAll(zr)
			return err == nil && bytes.Equal(sgot, src)
		})

		run(checks[7], func() bool {
			dict := corpus.Generate(kind, 8<<10, rng.Int63())
			comp, err := deflate.CompressZlibDict(src, dict, deflate.Options{})
			if err != nil {
				return false
			}
			got, err := deflate.DecompressZlibDict(comp, dict, deflate.InflateOptions{})
			return err == nil && bytes.Equal(got, src)
		})

		run(checks[8], func() bool {
			comp, err := deflate.CompressGzipParallel(src, 6, 4, 32<<10)
			if err != nil {
				return false
			}
			got, err := deflate.DecompressGzipMulti(comp, deflate.InflateOptions{})
			return err == nil && bytes.Equal(got, src)
		})
	}

	exit := 0
	fmt.Printf("nxverify: %d trials, seed %d\n", *trials, *seed)
	for _, c := range checks {
		status := "PASS"
		if c.fail > 0 {
			status = "FAIL"
			exit = 1
		}
		fmt.Printf("  %-16s %s  (%d/%d ok)%s\n", c.name, status, c.runs-c.fail, c.runs, c.note)
	}
	os.Exit(exit)
}

func run(t *tally, f func() bool) {
	t.runs++
	defer func() {
		if r := recover(); r != nil {
			t.fail++
			t.note = fmt.Sprintf("  PANIC: %v", r)
		}
	}()
	if !f() {
		t.fail++
	}
}
