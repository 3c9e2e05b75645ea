package nxzip_test

// bench_test.go times every experiment of internal/experiments' registry
// (BenchmarkExperiments, one sub-benchmark per table ID; the model-clock
// tables' cells are pinned by that package's golden file, not here) and
// the raw device and stream paths the experiments are built on.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"nxzip"
	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/experiments"
	"nxzip/internal/lz4"
	"nxzip/internal/x842"
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

// BenchmarkInflateKindsP9 times the inflate kernel alone on what a P9
// device writes for bench's bulk_oneshot payloads: the eight 1 MiB classes
// at seed 1 (generated as that workload generates them), each compressed
// with CompressGzip and decoded from its raw DEFLATE body by
// deflate.Decompress into a reused Dst. One sub-benchmark per class.
func BenchmarkInflateKindsP9(b *testing.B) {
	acc := nxzip.Open(nxzip.P9())
	defer acc.Close()
	kinds := []corpus.Kind{corpus.Text, corpus.HTML, corpus.JSONLogs, corpus.Source,
		corpus.Columnar, corpus.DNA, corpus.Binary, corpus.Random}
	const seed = 1
	for ki, k := range kinds {
		src := corpus.Generate(k, 1<<20, seed*131+int64(ki))
		gz, _, err := acc.CompressGzip(src)
		if err != nil {
			b.Fatal(err)
		}
		body, _, _, err := deflate.GzipUnwrap(gz)
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]byte, 0, len(src))
		b.Run(k.String(), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				out, err := deflate.Decompress(body, deflate.InflateOptions{Dst: dst})
				if err != nil || len(out) != len(src) {
					b.Fatalf("%d bytes, %v", len(out), err)
				}
			}
		})
	}
}

// BenchmarkBlockCodecKinds times the host kernels of bench's codec_mix
// workload on its four classes at seed 1, 64 KiB each (the first payload
// of each class, generated as that workload generates them): the lz4 and
// 842 encoders and decoders through the calls its ledger makes
// (Compress, and Decompress under an exact budget), and SoftwareGunzip on
// a compress/gzip stream of the payload. One sub-benchmark per kernel and
// class; DESIGN §5h's per-class table is read from it.
func BenchmarkBlockCodecKinds(b *testing.B) {
	kinds := []corpus.Kind{corpus.Text, corpus.JSONLogs, corpus.Columnar, corpus.Binary}
	const seed, size = 1, 64 << 10
	for ki, k := range kinds {
		src := corpus.Generate(k, 8*size, seed*131+int64(ki))[:size]
		lz, x := lz4.Compress(src), x842.Compress(src)
		var gz bytes.Buffer
		w := gzip.NewWriter(&gz)
		w.Write(src)
		w.Close()
		kernels := []struct {
			name string
			run  func() ([]byte, error)
		}{
			{"lz4.compress", func() ([]byte, error) { return lz4.Compress(src), nil }},
			{"lz4.decompress", func() ([]byte, error) { return lz4.Decompress(lz, len(src)) }},
			{"x842.compress", func() ([]byte, error) { return x842.Compress(src), nil }},
			{"x842.decompress", func() ([]byte, error) { return x842.Decompress(x, len(src)) }},
			{"softgunzip", func() ([]byte, error) { return nxzip.SoftwareGunzip(gz.Bytes()) }},
		}
		for _, kr := range kernels {
			b.Run(kr.name+"/"+k.String(), func(b *testing.B) {
				b.SetBytes(size)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := kr.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
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

// BenchmarkSmallIntoParallel times bench's small_into configuration — a
// Z15Node(1) with fixed tables, the flight recorder and the admission gate
// on — through the zero-alloc Into path: CompressGzipInto and
// DecompressGzipInto of one jsonlogs record of 256 B, 1 KiB or 4 KiB, from
// 1 and from 2 goroutines, each with its own view and destination. Every
// goroutine runs b.N requests, so ns/op is what one client waits per
// request while the others run beside it, and allocs/req counts the
// allocations of all of them per request. DESIGN §5g's per-request cost
// table is read from it.
func BenchmarkSmallIntoParallel(b *testing.B) {
	for _, clients := range []int{1, 2} {
		for _, size := range []int{256, 1 << 10, 4 << 10} {
			rec := corpus.Generate(corpus.JSONLogs, size, 1)
			for _, dir := range []string{"compress", "decompress"} {
				b.Run(fmt.Sprintf("clients=%d/size=%d/%s", clients, size, dir), func(b *testing.B) {
					cfg := nxzip.Z15Node(1)
					cfg.TableMode = nxzip.TableFixed
					node, err := nxzip.OpenNode(cfg)
					if err != nil {
						b.Fatal(err)
					}
					node.EnableFlightRecorder("")
					node.EnableAdmission(admission.Config{})
					views := make([]*nxzip.Accelerator, clients)
					for i := range views {
						views[i] = node.View()
						defer views[i].Close()
					}
					src := rec
					if dir == "decompress" {
						if src, err = views[0].CompressGzipInto(nil, rec, nil); err != nil {
							b.Fatal(err)
						}
					}
					call := func(v *nxzip.Accelerator, dst []byte, m *nxzip.Metrics) ([]byte, error) {
						if dir == "compress" {
							return v.CompressGzipInto(dst[:0], src, m)
						}
						return v.DecompressGzipInto(dst[:0], src, m)
					}
					run := func(v *nxzip.Accelerator, n int) {
						dst := make([]byte, 0, 2*size+1024)
						var m nxzip.Metrics
						for i := 0; i < n; i++ {
							var err error
							if dst, err = call(v, dst, &m); err != nil {
								b.Error(err)
								return
							}
						}
					}
					for _, v := range views {
						run(v, 64) // warm the pools, the arenas and the recorder's windows
					}
					b.SetBytes(int64(size))
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					b.ResetTimer()
					var wg sync.WaitGroup
					for _, v := range views {
						wg.Add(1)
						go func() {
							defer wg.Done()
							run(v, b.N)
						}()
					}
					wg.Wait()
					b.StopTimer()
					runtime.ReadMemStats(&after)
					b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*clients), "allocs/req")
				})
			}
		}
	}
}
