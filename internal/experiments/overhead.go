package experiments

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"nxzip"
	"nxzip/internal/corpus"
)

// E20 and E22: what watches a node must be close to free. Each claim is
// that attaching a surface — E20 the full operational surface (event bus
// wired through every layer, window sampler ticking, HTTP server up with
// a client scraping /metrics throughout), E22 the flight recorder (every
// request minting a RequestID, recording its spans into its own span log,
// completing a digest into the ring, and the tail sampler copying the spans
// of the requests it keeps) — costs less
// than ~2% of the clean node's throughput. E25 measures its accounting
// plane the same way.

// overheadReps is how many paired off/on runs an overhead figure is the
// median of.
const overheadReps = 5

// pairedOverhead measures what a surface costs a workload. Each of
// overheadReps reps opens a node without the surface and then one with it
// (open(false), open(true)), and on each runs work(view, warm) untimed,
// then work(view, timed) timed. Pairing the two runs of a rep cancels slow
// host drift — thermal, neighbours' cache pressure — that dwarfs the
// effect, and the median drops the rep a neighbour disturbed. It returns
// the median of the paired on/off wall-time ratios and each side's median
// wall time.
func pairedOverhead(open func(on bool) (*nxzip.Node, func()), work func(acc *nxzip.Accelerator, n int), warm, timed int) (ratio float64, off, on time.Duration) {
	run := func(attach bool) time.Duration {
		node, detach := open(attach)
		defer detach()
		acc := node.View()
		defer acc.Close()
		work(acc, warm) // fault in pages, settle pools
		start := time.Now()
		work(acc, timed)
		return time.Since(start)
	}
	var ratios, offs, ons []float64
	for rep := 0; rep < overheadReps; rep++ {
		o, n := run(false), run(true)
		ratios = append(ratios, float64(n)/float64(o))
		offs = append(offs, float64(o))
		ons = append(ons, float64(n))
	}
	return median(ratios), time.Duration(median(offs)), time.Duration(median(ons))
}

func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

// Workload sizing mirrors E19: enough 256 KiB requests that per-request
// cost dominates fixed cost, few enough that a run takes about a second.
const (
	overheadRequests  = 48
	overheadWarmup    = 4
	overheadChunkSize = 256 << 10
)

// drawerOverheadTable measures E20 and E22: the surface attach turns on
// (returning its teardown) against a clean DrawerNode, over
// overheadRequests 256 KiB compresses.
func drawerOverheadTable(id, title, on string, attach func(*nxzip.Node) func()) *Table {
	t := &Table{ID: id, Title: title, Header: []string{"mode", "rate", "relative"}}
	src := corpus.Generate(corpus.Text, overheadRequests*overheadChunkSize, Seed)
	open := func(on bool) (*nxzip.Node, func()) {
		node := DrawerNode()
		if !on {
			return node, func() {}
		}
		return node, attach(node)
	}
	work := func(acc *nxzip.Accelerator, n int) {
		for i := 0; i < n; i++ {
			if _, _, err := acc.CompressGzip(src[i*overheadChunkSize : (i+1)*overheadChunkSize]); err != nil {
				panic(fmt.Sprintf("%s request %d: %v", id, i, err)) // deterministic workload: a harness bug
			}
		}
	}
	ratio, offTime, onTime := pairedOverhead(open, work, overheadWarmup, overheadRequests)
	bytes := float64(overheadRequests * overheadChunkSize)
	t.AddRow("off", gbs(bytes/offTime.Seconds()), f2(1))
	t.AddRow("on", gbs(bytes/onTime.Seconds()), f2(1/ratio))
	t.Note("z15 drawer (4 zEDC units), %d x %d KiB requests after %d warmup; rates are the median of %d runs per mode, relative the median of the %d paired on/off ratios; seed %d",
		overheadRequests, overheadChunkSize>>10, overheadWarmup, overheadReps, overheadReps, Seed)
	t.Note("on = %s", on)
	return t
}

// E20ObservabilityOverhead: the event bus and the exposition server.
// Every request-path hook is an atomic load plus a nil check, and the
// exposition works on snapshot copies off the request path.
func E20ObservabilityOverhead() *Table {
	t := drawerOverheadTable("E20",
		"observability overhead: clean node vs full surface live (events + sampler + /metrics scraper)",
		"events wired through every layer, window sampler ticking, HTTP server up, /metrics scraped every 10 ms",
		func(node *nxzip.Node) func() {
			srv, err := node.ServeObs("127.0.0.1:0")
			if err != nil {
				panic(err)
			}
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				client := &http.Client{Timeout: time.Second}
				for {
					select {
					case <-stop:
						return
					default:
					}
					if resp, err := client.Get("http://" + srv.Addr() + "/metrics"); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					time.Sleep(10 * time.Millisecond)
				}
			}()
			return func() { close(stop); <-done; srv.Close() }
		})
	t.Note("request-path hooks are an atomic load + nil check; exposition works on snapshot copies off the request path")
	return t
}

// E22FlightRecorderOverhead: the recorder, memory-only (digest ring and
// tail sampler live; no postmortem dir, so no disk I/O). The digest is one
// locked struct copy, spans are recorded into the request's own storage
// and copied only for a kept request, and the p99 recalculation amortizes
// over 64 completions on preallocated scratch.
func E22FlightRecorderOverhead() *Table {
	t := drawerOverheadTable("E22",
		"flight recorder overhead: clean node vs recorder attached (RequestID + digest ring + tail sampler)",
		"every request mints a RequestID, stamps it through dispatch, records its spans in its own storage, completes a digest; the tail sampler copies a kept request's spans",
		func(node *nxzip.Node) func() {
			node.EnableFlightRecorder("")
			return func() {}
		})
	t.Note("digest = one locked struct copy; p99 recalc amortized over 64 completions on preallocated scratch; steady state allocates nothing")
	return t
}
