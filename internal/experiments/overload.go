package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nxzip"
	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/stats"
)

// E24 measures what the admission gate buys past saturation. Credit/paste
// flow control alone (C4, C8) degrades badly when offered load exceeds
// capacity: every caller spins in paste-reject backoff and the tail grows
// without bound. The brownout ladder makes the degradation deliberate —
// background work is denied first, batch work re-routes to the software
// fallback next, and interactive work rides a bounded CoDel-policed
// queue. The experiment calibrates the node's closed-loop capacity, then
// offers an open-loop 20/40/40 interactive/batch/background mix at 0.5x,
// 1x, 2x and 4x that rate and reports per-class goodput, degradation,
// sheds and p99 latency. The property under test: at 2x offered load the
// interactive class still completes everything it offers.

// overloadArrivals is the open-loop arrival count per sweep point —
// fixed, so higher multipliers compress the same work into less wall time
// instead of growing the experiment.
const overloadArrivals = 3000

// overloadMults is the offered-load sweep, in units of calibrated
// capacity. Ascending order so early points see a cold pressure EWMA.
var overloadMults = []float64{0.5, 1, 2, 4}

// overloadClassOf deals arrivals 20/40/40: of every five arrivals, one
// interactive, two batch, two background.
func overloadClassOf(i int) admission.Class {
	switch i % 5 {
	case 0:
		return admission.Interactive
	case 1, 2:
		return admission.Batch
	default:
		return admission.Background
	}
}

// levelRank orders ladder names for the max-level sampler.
var levelRank = map[string]int{"normal": 0, "shed-background": 1, "shed-batch": 2, "saturated": 3}

// E24OverloadProtection runs the sweep on a gatedNode. The sweep points
// are short, so queued work always outlives the burst that queued it.
func E24OverloadProtection() *Table {
	t := &Table{
		ID:    "E24",
		Title: "overload protection: 20/40/40 class mix at 0.5x-4x offered capacity (1 NX unit, FHT)",
		Header: []string{"offered", "class", "arrivals", "completed", "degraded",
			"shed", "errors", "goodput req/s", "p99 ms", "peak level"},
	}
	node, ctrl := gatedNode()

	var views [admission.ClassCount]*nxzip.Accelerator
	for cl := admission.Class(0); cl < admission.ClassCount; cl++ {
		v := node.View()
		v.SetPriority(cl)
		views[cl] = v
		defer v.Close()
	}

	payloads := smallPayloads()
	capacity := calibrate("E24", views[admission.Interactive], payloads)

	type outcome struct {
		class    admission.Class
		latency  time.Duration
		degraded bool
		err      error
	}
	var wg sync.WaitGroup
	for _, mult := range overloadMults {
		rate := mult * capacity
		interval := time.Duration(float64(time.Second) / rate)
		results := make([]outcome, overloadArrivals)

		// Max-level sampler: polls the ladder while the point runs so the
		// row records the deepest brownout rung the burst reached.
		peak := 0
		stop := make(chan struct{})
		var sampler sync.WaitGroup
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(2 * time.Millisecond):
					if r := levelRank[ctrl.StatusNow().Level]; r > peak {
						peak = r
					}
				}
			}
		}()

		pointStart := time.Now()
		next := pointStart
		for i := 0; i < overloadArrivals; i++ {
			if wait := time.Until(next); wait > 100*time.Microsecond {
				time.Sleep(wait)
			}
			next = next.Add(interval)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cl := overloadClassOf(i)
				var m nxzip.Metrics
				t0 := time.Now()
				_, err := views[cl].CompressGzipInto(nil, payloads[i%len(payloads)], &m)
				results[i] = outcome{cl, time.Since(t0), m.Degraded, err}
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(pointStart).Seconds()
		close(stop)
		sampler.Wait()

		var (
			arrivals, completed, degraded, shed, errCount [admission.ClassCount]int
			lat                                           [admission.ClassCount]stats.Samples
		)
		for _, r := range results {
			arrivals[r.class]++
			switch {
			case r.err == nil:
				completed[r.class]++
				if r.degraded {
					degraded[r.class]++
				}
				lat[r.class].Add(float64(r.latency) / float64(time.Millisecond))
			case errors.Is(r.err, admission.ErrOverloaded):
				shed[r.class]++
			default:
				errCount[r.class]++
			}
		}
		level := "normal"
		for name, r := range levelRank {
			if r == peak {
				level = name
			}
		}
		for cl := admission.Class(0); cl < admission.ClassCount; cl++ {
			t.AddRow(fmt.Sprintf("%.1fx", mult), cl.String(),
				fmt.Sprintf("%d", arrivals[cl]),
				fmt.Sprintf("%d", completed[cl]),
				fmt.Sprintf("%d", degraded[cl]),
				fmt.Sprintf("%d", shed[cl]),
				fmt.Sprintf("%d", errCount[cl]),
				fmt.Sprintf("%.0f", float64(completed[cl])/elapsed),
				fmt.Sprintf("%.2f", lat[cl].Percentile(99)),
				level)
		}
	}
	t.Note("closed-loop calibrated capacity: %.0f req/s (%d workers, %s payloads); offered load is open-loop at the multiplier",
		capacity, calWorkers, stats.Bytes(smallPayload))
	t.Note("ladder: background denied first, batch degrades to software under brownout, interactive queues (bounded, CoDel-policed)")
	t.Note("errors must stay zero in every cell — overload protection sheds work, it never corrupts or fails it")
	return t
}

// smallPayload is E24's and E25's request size: 4 KiB, the small-request
// regime where per-request protocol cost matters and overload bites first.
const smallPayload = 4 << 10

// smallPayloads returns the 64 distinct 4 KiB JSON-log requests E24 and
// E25 cycle through.
func smallPayloads() [][]byte {
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = corpus.Generate(corpus.JSONLogs, smallPayload, Seed+int64(i))
	}
	return payloads
}

// gatedNode opens the one-unit POWER9 node (fixed tables) E24 and E25
// overload, behind an admission gate whose queue policy is deliberately
// generous (deep queue, 1 s MaxWait) so the interactive class absorbs a
// burst by waiting rather than timing out.
func gatedNode() (*nxzip.Node, *admission.Controller) {
	cfg := nxzip.P9Node(1)
	cfg.TableMode = nxzip.TableFixed
	node, err := nxzip.OpenNode(cfg)
	if err != nil {
		panic(err)
	}
	return node, node.EnableAdmission(admission.Config{
		QueueLimit:  8192,
		QueueTarget: 50 * time.Millisecond,
		MaxWait:     time.Second,
	})
}

// calWorkers x calRequests shape the closed-loop calibration run.
const calWorkers, calRequests = 16, 1024

// calibrate measures the request rate view sustains closed-loop — a
// fixed worker pool, each waiting for its completions, gate included:
// the capacity E24's and E25's offered loads are multiples of.
func calibrate(id string, view *nxzip.Accelerator, payloads [][]byte) float64 {
	var wg sync.WaitGroup
	per := calRequests / calWorkers
	start := time.Now()
	for w := 0; w < calWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var m nxzip.Metrics
			for k := 0; k < per; k++ {
				if _, err := view.CompressGzipInto(nil, payloads[(w*per+k)%len(payloads)], &m); err != nil {
					panic(fmt.Sprintf("%s calibration: %v", id, err))
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(calWorkers*per) / time.Since(start).Seconds()
}
