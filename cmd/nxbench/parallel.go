package main

// parallel.go implements `nxbench -parallel`: a host-side measurement of
// the pipelined ParallelWriter and parallel Reader against their serial
// counterparts. Two throughputs are reported per configuration:
//
//   - host: wall-clock rate of the Go model on this machine (bounded by
//     GOMAXPROCS — flat on a single-core container);
//   - model: modelled device throughput, where the makespan of a burst is
//     the busiest engine's cycle count. This is the paper's metric — with
//     one engine per worker behind the shared FIFO, it scales with the
//     number of requests kept in flight (claims C2/C3/C6, experiment E6).
//
// The device is configured with Engines = workers so the multi-window
// submission pattern has engines to land on; a single engine is charged
// every request, so its busy cycles are the burst's makespan on the model
// clock however many goroutines ran them on the host.

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"nxzip"
	"nxzip/internal/corpus"
	"nxzip/internal/experiments"
)

const (
	parallelSrcLen = 8 << 20
	parallelRounds = 3
)

func parallelTables() []*experiments.Table {
	return []*experiments.Table{parallelWriterTable(), parallelReaderTable()}
}

// busySnapshot captures each engine's cumulative busy cycles. The count
// comes from the device itself — Engine(i) wraps modulo the engine
// count, so iterating an assumed count would silently re-read engine 0.
func busySnapshot(acc *nxzip.Accelerator) []int64 {
	s := make([]int64, acc.Device().EngineCount())
	for i := range s {
		s[i] = acc.Device().Engine(i).Counters().BusyCycles
	}
	return s
}

// makespan converts the busiest engine's cycle delta to modelled time.
func makespan(acc *nxzip.Accelerator, before []int64) time.Duration {
	var max int64
	for i := range before {
		if d := acc.Device().Engine(i).Counters().BusyCycles - before[i]; d > max {
			max = d
		}
	}
	return acc.PipelineConfig().Time(max)
}

func parallelWriterTable() *experiments.Table {
	src := corpus.Generate(corpus.Text, parallelSrcLen, 17)
	tab := &experiments.Table{
		ID:     "P1",
		Title:  "Serial vs pipelined parallel Writer (8 MiB text, one engine per worker)",
		Header: []string{"chunk", "workers", "host", "model device", "model speedup"},
	}
	for _, chunk := range []int{256 << 10, 1 << 20} {
		var base float64
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := nxzip.P9()
			cfg.Device.Engines = workers
			acc := nxzip.Open(cfg)
			before := busySnapshot(acc)
			start := time.Now()
			for round := 0; round < parallelRounds; round++ {
				var w io.WriteCloser
				if workers == 1 {
					w = acc.NewWriterChunk(io.Discard, chunk)
				} else {
					w = acc.NewParallelWriterChunk(io.Discard, chunk, workers)
				}
				if _, err := w.Write(src); err != nil {
					panic(err)
				}
				if err := w.Close(); err != nil {
					panic(err)
				}
			}
			host := float64(parallelRounds*len(src)) / time.Since(start).Seconds()
			model := float64(parallelRounds*len(src)) / makespan(acc, before).Seconds()
			acc.Close()
			if workers == 1 {
				base = model
			}
			tab.AddRow(
				fmt.Sprintf("%d KiB", chunk>>10),
				fmt.Sprintf("%d", workers),
				fmt.Sprintf("%.1f MB/s", host/1e6),
				fmt.Sprintf("%.2f GB/s", model/1e9),
				fmt.Sprintf("%.2fx", model/base),
			)
		}
	}
	tab.Note("model speedup is relative to workers=1 at the same chunk size; host MB/s is bounded by this machine's core count")
	return tab
}

func parallelReaderTable() *experiments.Table {
	src := corpus.Generate(corpus.Text, parallelSrcLen, 18)
	tab := &experiments.Table{
		ID:     "P2",
		Title:  "Serial vs parallel multi-member Reader (8 MiB text, 256 KiB members)",
		Header: []string{"workers", "host", "model device", "model speedup"},
	}
	var base float64
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := nxzip.P9()
		cfg.Device.Engines = workers
		acc := nxzip.Open(cfg)
		var comp bytes.Buffer
		w := acc.NewWriterChunk(&comp, 256<<10)
		if _, err := w.Write(src); err != nil {
			panic(err)
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		before := busySnapshot(acc)
		start := time.Now()
		for round := 0; round < parallelRounds; round++ {
			r := acc.NewReader(bytes.NewReader(comp.Bytes()))
			r.Workers = workers
			if _, err := io.Copy(io.Discard, r); err != nil {
				panic(err)
			}
		}
		host := float64(parallelRounds*len(src)) / time.Since(start).Seconds()
		model := float64(parallelRounds*len(src)) / makespan(acc, before).Seconds()
		acc.Close()
		if workers == 1 {
			base = model
		}
		tab.AddRow(
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.1f MB/s", host/1e6),
			fmt.Sprintf("%.2f GB/s", model/1e9),
			fmt.Sprintf("%.2fx", model/base),
		)
	}
	tab.Note("the Reader hops member to member by the length each carries in its header, then decodes them on separate engine contexts")
	return tab
}
