package nxzip_test

// bench_test.go times every experiment of internal/experiments' registry
// (BenchmarkExperiments, one sub-benchmark per table ID; the model-clock
// tables' cells are pinned by that package's golden file, not here) and
// the raw device and stream paths the experiments are built on.

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"nxzip"
	"nxzip/internal/corpus"
	"nxzip/internal/experiments"
)

// BenchmarkExperiments runs each registry entry end to end.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run()
			}
		})
	}
}

// Raw device micro-benchmarks: host cost of the model itself (not the
// modelled device time).
func BenchmarkDeviceCompressGzipP9(b *testing.B) {
	acc := nxzip.Open(nxzip.P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 1<<20, 1)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := acc.CompressGzip(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceDecompressGzipP9(b *testing.B) {
	acc := nxzip.Open(nxzip.P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 1<<20, 1)
	gz, _, err := acc.CompressGzip(src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := acc.DecompressGzip(gz); err != nil {
			b.Fatal(err)
		}
	}
}

// deviceMakespan converts the busiest engine's cycle delta into modelled
// wall time: engines behind the shared FIFO run concurrently, so the
// device-side makespan of a parallel burst is the maximum per-engine busy
// time, not the sum.
func deviceMakespan(acc *nxzip.Accelerator, before []int64) time.Duration {
	dev := acc.Device()
	var max int64
	for i := range before {
		if d := dev.Engine(i).Counters().BusyCycles - before[i]; d > max {
			max = d
		}
	}
	return dev.PipelineConfig().Time(max)
}

func engineBusySnapshot(acc *nxzip.Accelerator, engines int) []int64 {
	s := make([]int64, engines)
	for i := range s {
		s[i] = acc.Device().Engine(i).Counters().BusyCycles
	}
	return s
}

// BenchmarkWriterSerialVsParallel measures the streaming Writer against
// the pipelined ParallelWriter at several chunk sizes and worker counts —
// the scaling claims of E6/E9: throughput comes from requests in flight,
// not faster requests. The device is configured with one engine per
// worker (multi-engine / multi-chip aggregate), since a single engine
// serializes all requests exactly as the silicon does.
//
// Two numbers per run: host MB/s (bounded by GOMAXPROCS — flat on a
// single-core container) and model-MB/s, the modelled device throughput
// where the makespan is the busiest engine. The latter is the paper's
// metric and scales ~linearly with workers.
func BenchmarkWriterSerialVsParallel(b *testing.B) {
	src := corpus.Generate(corpus.Text, 8<<20, 17)
	for _, chunk := range []int{256 << 10, 1 << 20} {
		for _, workers := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("chunk=%dKiB/workers=%d", chunk>>10, workers)
			b.Run(name, func(b *testing.B) {
				cfg := nxzip.P9()
				cfg.Device.Engines = workers
				acc := nxzip.Open(cfg)
				defer acc.Close()
				b.SetBytes(int64(len(src)))
				before := engineBusySnapshot(acc, workers)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var w io.WriteCloser
					if workers == 1 {
						w = acc.NewWriterChunk(io.Discard, chunk)
					} else {
						w = acc.NewParallelWriterChunk(io.Discard, chunk, workers)
					}
					if _, err := w.Write(src); err != nil {
						b.Fatal(err)
					}
					if err := w.Close(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				span := deviceMakespan(acc, before)
				if span > 0 {
					mbps := float64(b.N) * float64(len(src)) / span.Seconds() / 1e6
					b.ReportMetric(mbps, "model-MB/s")
				}
			})
		}
	}
}

// BenchmarkReaderSerialVsParallel: multi-member decode fan-out.
func BenchmarkReaderSerialVsParallel(b *testing.B) {
	src := corpus.Generate(corpus.Text, 8<<20, 18)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := nxzip.P9()
			cfg.Device.Engines = workers
			acc := nxzip.Open(cfg)
			defer acc.Close()
			var comp bytes.Buffer
			w := acc.NewWriterChunk(&comp, 256<<10)
			w.Write(src)
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(src)))
			before := engineBusySnapshot(acc, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := acc.NewReader(bytes.NewReader(comp.Bytes()))
				r.Workers = workers
				if _, err := io.Copy(io.Discard, r); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			span := deviceMakespan(acc, before)
			if span > 0 {
				mbps := float64(b.N) * float64(len(src)) / span.Seconds() / 1e6
				b.ReportMetric(mbps, "model-MB/s")
			}
		})
	}
}

func BenchmarkSoftwareGzipLevel6(b *testing.B) {
	src := corpus.Generate(corpus.Text, 1<<20, 1)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := nxzip.SoftwareGzip(src, 6); err != nil {
			b.Fatal(err)
		}
	}
}
