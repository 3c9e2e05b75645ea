package experiments

import (
	"fmt"
	"time"

	"nxzip"
	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
	"nxzip/internal/nx"
	"nxzip/internal/stats"
)

// ChaosRates is the default fault-rate sweep of E19: every injectable
// class fired uniformly at the given per-decision probability.
var ChaosRates = []float64{0, 0.001, 0.01, 0.05, 0.10, 0.25}

// chaosPoint is one measured row of E19.
type chaosPoint struct {
	Rate         float64 // end-to-end wall-clock bytes/s, recovery included
	P99Ms        float64 // 99th-percentile per-request wall latency
	Redispatches int64
	Fallbacks    int64
	Quarantines  int64
	Injected     int64
}

// chaosRequests x chaosChunkSize is the work each sweep point pushes
// through the node; 256 KiB keeps a point fast while still large enough
// that per-request recovery overhead, not fixed cost, dominates.
const (
	chaosRequests  = 48
	chaosChunkSize = 256 << 10
)

// DrawerNode opens the z15 drawer (4 zEDC units) E19, E20 and E22
// measure on and nxbench -serve serves, each device with a trimmed
// recovery budget: the default policy is sized for production patience
// (up to 2048 millisecond-scale backoff waits), which under sustained
// injection turns one sweep point into minutes of sleeping. Capping the
// budget makes a wedged device give up in microseconds and hand the
// request to failover — the behavior under test — without changing
// semantics.
func DrawerNode() *nxzip.Node {
	devs := make([]nx.DeviceConfig, 4)
	for i := range devs {
		devs[i] = nx.Z15Device()
		devs[i].Submit = nx.SubmitPolicy{
			MaxFaultRounds:   8,
			MaxPasteAttempts: 1 << 20,
			MaxBackoffWaits:  16,
			BackoffBase:      time.Microsecond,
			BackoffMax:       8 * time.Microsecond,
		}
	}
	node, err := nxzip.OpenNode(nxzip.CustomNode("z15-drawer", devs...))
	if err != nil {
		panic(err) // a fixed, valid shape
	}
	return node
}

// measureChaos drives one fault rate through the full recovery stack: a
// DrawerNode with a deterministic injector installed on every device,
// requests routed by the dispatcher with health-scoreboard failover and
// software fallback live. Rates are wall-clock because that is what
// recovery costs — backoff sleeps, wasted attempts and software-path
// compute all land on the caller. The workload is deterministic, so any
// error is a harness bug.
func measureChaos(rate float64, p faultinject.Profile) chaosPoint {
	node := DrawerNode()
	injs := node.InstallInjectors(Seed, p)
	acc := node.View()
	defer acc.Close()

	src := corpus.Generate(corpus.Text, chaosRequests*chaosChunkSize, Seed)
	lat := &stats.Samples{}
	start := time.Now()
	for i := 0; i < chaosRequests; i++ {
		chunk := src[i*chaosChunkSize : (i+1)*chaosChunkSize]
		t0 := time.Now()
		if _, _, err := acc.CompressGzip(chunk); err != nil {
			panic(fmt.Sprintf("E19 rate %g request %d: %v", rate, i, err))
		}
		lat.Add(float64(time.Since(t0).Microseconds()) / 1e3)
	}
	wall := time.Since(start)

	var injected int64
	for _, inj := range injs {
		injected += inj.TotalInjected()
	}
	snap := node.Metrics()
	return chaosPoint{
		Rate:         float64(chaosRequests*chaosChunkSize) / wall.Seconds(),
		P99Ms:        lat.Percentile(99),
		Redispatches: snap.Counter("nxzip.redispatches", ""),
		Fallbacks:    snap.Counter("nxzip.fallbacks", ""),
		Quarantines:  snap.Counter("topology.quarantines", ""),
		Injected:     injected,
	}
}

// E19ChaosDegradation sweeps ChaosRates. The claim under test is
// graceful degradation: throughput falls and tail latency grows roughly in
// proportion to the injected rate, every request still completes
// correctly, and at no rate does the node collapse — the worst case is
// the software-fallback floor, not an error.
func E19ChaosDegradation() *Table {
	t := &Table{
		ID:     "E19",
		Title:  "throughput and p99 latency vs injected fault rate (graceful degradation)",
		Header: []string{"fault-rate", "rate", "relative", "p99-latency", "redispatch", "fallback", "quarantine", "injected"},
	}
	var base float64
	for _, r := range ChaosRates {
		p := measureChaos(r, faultinject.Uniform(r))
		if base == 0 {
			base = p.Rate
		}
		chaosRow(t, fmt.Sprintf("%g", r), p, base)
	}
	chaosNotes(t)
	return t
}

// chaosRow appends one measured point under the shared E19 header, its
// rate relative to base.
func chaosRow(t *Table, label string, p chaosPoint, base float64) {
	t.AddRow(label, gbs(p.Rate), f2(p.Rate/base),
		fmt.Sprintf("%.2f ms", p.P99Ms), fmt.Sprintf("%d", p.Redispatches),
		fmt.Sprintf("%d", p.Fallbacks), fmt.Sprintf("%d", p.Quarantines),
		fmt.Sprintf("%d", p.Injected))
}

func chaosNotes(t *Table) {
	t.Note("z15 drawer (4 zEDC units), %d x %d KiB requests per point; seed %d",
		chaosRequests, chaosChunkSize>>10, Seed)
	t.Note("rates are wall-clock: backoff sleeps, wasted attempts and software-fallback compute charge the caller")
	t.Note("every request completes byte-correct at every rate; degradation is throughput/latency, never availability")
}

// ChaosProfile measures one named injection profile (the `-chaos mild`
// CLI path) against the clean baseline, so the row's relative column is
// meaningful on its own.
func ChaosProfile(name string, p faultinject.Profile) *Table {
	t := &Table{
		ID:     "E19",
		Title:  fmt.Sprintf("chaos profile %q vs clean baseline", name),
		Header: []string{"profile", "rate", "relative", "p99-latency", "redispatch", "fallback", "quarantine", "injected"},
	}
	clean := measureChaos(0, faultinject.Profile{})
	chaosRow(t, "off", clean, clean.Rate)
	chaosRow(t, name, measureChaos(0, p), clean.Rate)
	chaosNotes(t)
	return t
}
