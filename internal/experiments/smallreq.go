package experiments

import (
	"fmt"
	"time"

	"nxzip"
	"nxzip/internal/corpus"
	"nxzip/internal/stats"
)

// E21 measures what the batched submission path buys. The device model
// charges every queued request a fixed protocol cost — paste-to-dispatch
// setup plus completion writeback, ~3 us on both chips — which dominates
// once payloads shrink to a few KiB (the paper's latency-vs-size curves
// show exactly this wall). CompressBatch pays it once per device per
// batch: chained entries cost only a descriptor advance and a CSB store.
// The experiment sweeps payload size and reports modeled request rates
// for the unbatched per-request path and the batched path, plus the
// measured software baseline, locating the batching win and the
// software crossover.

// smallreqCount is the number of requests timed per payload size.
const smallreqCount = 256

// E21SmallRequestBatching runs the sweep on a one-drawer z15 node (four
// zEDC units) running fixed Huffman tables — E17's conclusion for small
// requests, where the dynamic-table header and generation latency never
// pay for themselves. Accelerator rates come from the device timeline
// (the same modeled clock as E8/E15); the software rate is measured on
// this host, the same mixed convention as the E3/E4 speedup tables.
func E21SmallRequestBatching() *Table {
	t := &Table{
		ID:     "E21",
		Title:  "batched small requests: one paste per device per batch (4 zEDC units, FHT)",
		Header: []string{"size", "unbatched req/s", "batched req/s", "software req/s", "batch speedup"},
	}
	cfg := nxzip.Z15Node(1)
	cfg.TableMode = nxzip.TableFixed
	node, err := nxzip.OpenNode(cfg)
	if err != nil {
		panic(err)
	}
	acc := node.View()
	defer acc.Close()
	devices := node.Devices()

	for _, size := range []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		payloads := make([][]byte, smallreqCount)
		for i := range payloads {
			payloads[i] = corpus.Generate(corpus.JSONLogs, size, Seed+int64(i))
		}

		// Unbatched: a synchronous caller submits one request at a time
		// and eats the full queued-protocol latency per request, so the
		// modeled timeline is the sum of per-request device times.
		var m nxzip.Metrics
		var unbatchedTime time.Duration
		for _, p := range payloads {
			if _, err := acc.CompressGzipInto(nil, p, &m); err != nil {
				panic(fmt.Sprintf("E21 unbatched %d: %v", size, err))
			}
			unbatchedTime += m.DeviceTime
		}
		unbatched := float64(smallreqCount) / unbatchedTime.Seconds()

		// Batched: each device's group runs as one chained envelope and
		// the groups run in parallel across the node, so the makespan is
		// the busiest device's share of the timeline.
		reqs := make([]*nxzip.BatchRequest, smallreqCount)
		for i, p := range payloads {
			reqs[i] = &nxzip.BatchRequest{Src: p}
		}
		acc.CompressBatch(reqs)
		perDevice := make([]time.Duration, devices)
		for i, r := range reqs {
			if r.Err != nil {
				panic(fmt.Sprintf("E21 batched %d req %d: %v", size, i, r.Err))
			}
			if r.Metrics.Degraded || r.Device < 0 {
				panic(fmt.Sprintf("E21 batched %d req %d degraded on a healthy node", size, i))
			}
			perDevice[r.Device] += r.Metrics.DeviceTime
		}
		var makespan time.Duration
		for _, d := range perDevice {
			if d > makespan {
				makespan = d
			}
		}
		batched := float64(smallreqCount) / makespan.Seconds()

		start := time.Now()
		for _, p := range payloads {
			if _, err := nxzip.SoftwareGzip(p, 6); err != nil {
				panic(err)
			}
		}
		software := float64(smallreqCount) / time.Since(start).Seconds()

		t.AddRow(stats.Bytes(int64(size)),
			fmt.Sprintf("%.0f", unbatched),
			fmt.Sprintf("%.0f", batched),
			fmt.Sprintf("%.0f", software),
			fmt.Sprintf("%.2fx", batched/unbatched))
	}
	t.Note("unbatched pays paste-to-dispatch setup + completion per request; batched pays it once per device envelope")
	t.Note("accelerator req/s from the modeled device timeline (batch = busiest device); software req/s measured on this host")
	return t
}
