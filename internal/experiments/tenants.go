package experiments

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"nxzip"
	"nxzip/internal/admission"
	"nxzip/internal/obs"
	"nxzip/internal/stats"
)

// E25 measures what the tenant accounting plane buys during noisy-
// neighbour interference. One abusive tenant (background class) floods
// the node far past its fair share while well-behaved interactive
// tenants keep a steady modest load. The property under test: the
// multi-window burn-rate evaluator pages on the ABUSER'S label —
// tenant-scoped, actionable — while the global /healthz verdict is
// still healthy, because the node-wide lifetime ratios move much more
// slowly than a windowed per-label burn. The experiment also measures
// the accounting plane's overhead with pairedOverhead (labeled bumps on
// vs DisableTenantAccounting).

const (
	// tenantWells is how many well-behaved tenants share the node.
	tenantWells = 3
	// tenantBaselineDur is the baseline phase length. It is deliberately
	// long: the global shed-ratio SLO is a lifetime ratio, so baseline
	// history is the ballast that keeps /healthz green while the
	// windowed burn evaluator pages — exactly the production dynamic
	// under test.
	tenantBaselineDur = 8 * time.Second
	// tenantInterfereDur bounds the interference phase.
	tenantInterfereDur = 3500 * time.Millisecond
	// tenantWellFrac / tenantAbuseBaseline are per-tenant offered load as
	// a fraction of capacity: wells stay at 0.1x each through both
	// phases; the abuser offers 0.2x at baseline.
	tenantWellFrac      = 0.10
	tenantAbuseBaseline = 0.20
	// During the storm the abuser switches to a closed-loop flood from
	// tenantAbuseWorkers goroutines — a real noisy neighbour saturates
	// its connection pool rather than pacing arrivals. A paced open-loop
	// storm past capacity is also unusable here: each arrival past
	// capacity parks a goroutine, the run queue grows by thousands per
	// second, and the starved sampler stops producing the very windows
	// the burn evaluator reads. On a shed the worker backs off
	// tenantAbuseBackoff — a fraction of the gate's retry-after hint
	// (abusive, not suicidal) — which also bounds the shed rate so the
	// windowed burn SLI trips well before the node's lifetime shed
	// ratio erodes the baseline ballast.
	tenantAbuseWorkers = 64
	tenantAbuseBackoff = 10 * time.Millisecond
)

// tenantBurnConfig compresses the SRE-workbook windows to experiment
// scale: the fast pair fires within ~1s of sustained excess, long
// before the lifetime ratios move. The shed budget is tighter than the
// global MaxShedRatio rule (0.10 vs 0.25) — the backoff-throttled flood
// settles near a 0.25 aggregate shed fraction, which a 0.25-budget burn
// reads as exactly 1x (healthy); a paging policy wants its budget below
// the rule it fronts so sustained abuse burns visibly. The queue-wait
// budget is loosened: storm queue waits crowd just under QueueBudgetUS,
// and the experiment wants the shed SLO, not wait jitter, to page.
func tenantBurnConfig() obs.BurnConfig {
	return obs.BurnConfig{
		FastShort: 300 * time.Millisecond, FastLong: time.Second, FastRate: 1.5,
		SlowShort: 600 * time.Millisecond, SlowLong: 2 * time.Second, SlowRate: 1.2,
		ShedBudget:           0.10,
		QueueViolationBudget: 0.20,
		MinRequests:          50,
	}
}

// tenantLoad is one tenant's load source for one phase: open-loop
// paced at rps, or (workers > 0) a closed-loop flood.
type tenantLoad struct {
	view    *nxzip.Accelerator
	role    string
	rps     float64
	workers int
}

// tenantTally accumulates one tenant's outcomes for one phase.
type tenantTally struct {
	mu                             sync.Mutex
	arrivals, completed, shed, err int
	lat                            stats.Samples
}

// runPhase offers each load for dur and returns per-load tallies
// (indexed like loads). It returns once every arrival has completed or
// been refused.
func runPhase(loads []tenantLoad, payloads [][]byte, dur time.Duration) []*tenantTally {
	tallies := make([]*tenantTally, len(loads))
	record := func(tl *tenantTally, err error, lat time.Duration) {
		tl.mu.Lock()
		tl.arrivals++
		switch {
		case err == nil:
			tl.completed++
			tl.lat.Add(float64(lat) / float64(time.Millisecond))
		case errors.Is(err, admission.ErrOverloaded):
			tl.shed++
		default:
			tl.err++
		}
		tl.mu.Unlock()
	}
	var wg sync.WaitGroup
	for li := range loads {
		tallies[li] = &tenantTally{}
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			ld, tl := loads[li], tallies[li]
			deadline := time.Now().Add(dur)
			var inner sync.WaitGroup
			if ld.workers > 0 {
				// Closed-loop flood: workers hammer back-to-back, pausing
				// only the token backoff after a refusal.
				for w := 0; w < ld.workers; w++ {
					inner.Add(1)
					go func(w int) {
						defer inner.Done()
						var m nxzip.Metrics
						for i := w; time.Now().Before(deadline); i += ld.workers {
							t0 := time.Now()
							_, err := ld.view.CompressGzipInto(nil, payloads[i%len(payloads)], &m)
							record(tl, err, time.Since(t0))
							if errors.Is(err, admission.ErrOverloaded) {
								time.Sleep(tenantAbuseBackoff)
							}
						}
					}(w)
				}
				inner.Wait()
				return
			}
			// Open-loop pacing: arrivals at rps regardless of completions.
			interval := time.Duration(float64(time.Second) / ld.rps)
			next := time.Now()
			for i := 0; time.Now().Before(deadline); i++ {
				if wait := time.Until(next); wait > 100*time.Microsecond {
					time.Sleep(wait)
				}
				next = next.Add(interval)
				inner.Add(1)
				go func(i int) {
					defer inner.Done()
					var m nxzip.Metrics
					t0 := time.Now()
					_, err := ld.view.CompressGzipInto(nil, payloads[i%len(payloads)], &m)
					record(tl, err, time.Since(t0))
				}(i)
			}
			inner.Wait()
		}(li)
	}
	wg.Wait()
	return tallies
}

// E25TenantInterference runs the experiment on a gatedNode.
func E25TenantInterference() *Table {
	t := &Table{
		ID:    "E25",
		Title: "tenant interference: burn-rate paging on the offender's label before the global SLO flips (1 NX unit, FHT)",
		Header: []string{"phase", "tenant", "role", "offered req/s", "arrivals",
			"completed", "shed", "shed%", "p99 ms", "burn"},
	}
	node, _ := gatedNode()
	srv, err := node.ServeObsConfig("127.0.0.1:0", nxzip.ObsConfig{
		SampleInterval: 100 * time.Millisecond,
		Burn:           tenantBurnConfig(),
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Views: wells are interactive weight-1 tenants; the abuser is a
	// background-class tenant, so the brownout ladder sheds its excess
	// first — the accounting plane must pin the resulting burn on it.
	wells := make([]*nxzip.Accelerator, tenantWells)
	for i := range wells {
		wells[i] = node.View()
		wells[i].SetPriority(admission.Interactive)
		wells[i].SetQuotaWeight(1)
		defer wells[i].Close()
	}
	abuser := node.View()
	abuser.SetPriority(admission.Background)
	abuser.SetQuotaWeight(1)
	defer abuser.Close()
	abuserLabel := nxzip.TenantLabel(abuser.TenantID())

	payloads := smallPayloads()
	capacity := calibrate("E25", wells[0], payloads)

	loads := make([]tenantLoad, 0, tenantWells+1)
	for _, v := range wells {
		loads = append(loads, tenantLoad{view: v, role: "well-behaved", rps: tenantWellFrac * capacity})
	}
	loads = append(loads, tenantLoad{view: abuser, role: "abusive", rps: tenantAbuseBaseline * capacity})
	abuserIdx := len(loads) - 1

	// The first tenant-attributed page of the storm, as the bus watcher
	// saw it.
	var burn struct {
		fired, healthy bool
		offender       string
		atMs           float64
	}
	errs := 0 // non-shed failures: must stay zero
	addRows := func(phase string, loads []tenantLoad, tallies []*tenantTally, dur time.Duration) {
		for li, tl := range tallies {
			errs += tl.err
			label := nxzip.TenantLabel(loads[li].view.TenantID())
			ratio := 0.0
			if tot := tl.completed + tl.shed; tot > 0 {
				ratio = float64(tl.shed) / float64(tot)
			}
			offered := loads[li].rps
			if loads[li].workers > 0 {
				// Closed-loop: the offered rate is whatever the flood
				// achieved.
				offered = float64(tl.arrivals) / dur.Seconds()
			}
			page := "-"
			if phase == "interference" && burn.fired && label == burn.offender {
				page = "PAGE"
			}
			t.AddRow(phase, label, loads[li].role,
				fmt.Sprintf("%.0f", offered),
				fmt.Sprintf("%d", tl.arrivals),
				fmt.Sprintf("%d", tl.completed),
				fmt.Sprintf("%d", tl.shed),
				fmt.Sprintf("%.1f", 100*ratio),
				fmt.Sprintf("%.2f", tl.lat.Percentile(99)),
				page)
		}
	}

	// Phase 1 — baseline: everyone inside fair share. This also banks
	// the admitted-count history the lifetime SLO averages over.
	addRows("baseline", loads, runPhase(loads, payloads, tenantBaselineDur), tenantBaselineDur)

	// Phase 2 — interference: the abuser switches to a closed-loop
	// flood. A bus watcher catches the first firing EventBurnRate and
	// immediately probes /healthz, capturing the ordering the experiment
	// asserts.
	sub := node.Bus().Subscribe(64)
	stormStart := time.Now()
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for e := range sub.C() {
			// Only a tenant-attributed page counts: the property under
			// test is offender-labeled alerting, not just alerting.
			if e.Type != obs.EventBurnRate || !strings.Contains(e.Detail, "firing") || e.Tenant == 0 {
				continue
			}
			resp, err := http.Get(base + "/healthz")
			burn.healthy = err == nil && resp.StatusCode == http.StatusOK
			if resp != nil {
				resp.Body.Close()
			}
			burn.fired = true
			burn.atMs = float64(time.Since(stormStart)) / float64(time.Millisecond)
			burn.offender = nxzip.TenantLabel(e.Tenant)
			return
		}
	}()
	storm := append([]tenantLoad(nil), loads...)
	storm[abuserIdx].rps = 0
	storm[abuserIdx].workers = tenantAbuseWorkers
	stormTallies := runPhase(storm, payloads, tenantInterfereDur)
	sub.Close()
	<-watcherDone
	addRows("interference", storm, stormTallies, tenantInterfereDur)
	srv.Close()

	abuserOffered := float64(stormTallies[abuserIdx].arrivals) / tenantInterfereDur.Seconds()
	t.Note("calibrated capacity %.0f req/s; storm: abuser floods closed-loop from %d workers (%.0f arrivals/s, %.1fx capacity)",
		capacity, tenantAbuseWorkers, abuserOffered, abuserOffered/capacity)
	if burn.fired {
		verdict := "UNHEALTHY"
		if burn.healthy {
			verdict = "still healthy"
		}
		t.Note("burn-rate alert fired %.0f ms into the storm naming %s (abuser: %v); global /healthz was %s at that moment",
			burn.atMs, burn.offender, burn.offender == abuserLabel, verdict)
	} else {
		t.Note("no burn-rate alert fired during the storm — investigate")
	}
	t.Note("non-shed errors across both phases: %d (must be 0)", errs)
	t.Note("tenant accounting plane overhead (median of %d paired on/off ratios): %+.2f%% — sign varies run to run; the effect sits below this box's ±4%% timing noise floor",
		overheadReps, tenantAccountingOverhead(payloads))
	return t
}

// tenantAccountingOverhead is the closed-loop cost of the labeled bump
// path, in percent: 8 workers of 4 KiB compresses on a node with the
// accounting plane on against one with DisableTenantAccounting.
func tenantAccountingOverhead(payloads [][]byte) float64 {
	const workers = 8
	open := func(on bool) (*nxzip.Node, func()) {
		cfg := nxzip.P9Node(1)
		cfg.TableMode = nxzip.TableFixed
		cfg.DisableTenantAccounting = !on
		node, err := nxzip.OpenNode(cfg)
		if err != nil {
			panic(err)
		}
		return node, func() {}
	}
	work := func(acc *nxzip.Accelerator, per int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var m nxzip.Metrics
				for k := 0; k < per; k++ {
					if _, err := acc.CompressGzipInto(nil, payloads[(w*per+k)%len(payloads)], &m); err != nil {
						panic(fmt.Sprintf("E25 overhead: %v", err))
					}
				}
			}(w)
		}
		wg.Wait()
	}
	ratio, _, _ := pairedOverhead(open, work, 32, 768)
	return 100 * (ratio - 1)
}
