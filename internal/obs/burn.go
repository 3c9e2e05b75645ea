package obs

import (
	"fmt"
	"time"
)

// burn.go implements multi-window, multi-burn-rate SLO alerting over
// the Sampler's window ring (the standard SRE-workbook construction).
// Two error budgets are tracked: the shed ratio (fraction of presented
// work the admission gate refuses, budget ShedBudget) and the
// queue-wait budget (fraction of requests whose queue wait exceeds
// QueueBudgetUS, budget QueueViolationBudget). For each, a burn rate is
// the measured error fraction over a lookback window divided by the
// budget — burn 1.0 exhausts the budget exactly at the SLO period; burn
// 14.4 exhausts a 30-day budget in ~2 days. An alert fires only when
// BOTH a short and a long window burn above the threshold: the long
// window proves the problem is material, the short window makes the
// alert reset quickly once the cause stops. The fast pair (5m/1h at
// 14.4) pages; the slow pair (30m/6h at 6) tickets.

// BurnSLO names one tracked error budget.
type BurnSLO string

const (
	// BurnShed: admission-gate refusals against ShedBudget.
	BurnShed BurnSLO = "shed-ratio"
	// BurnQueue: queue waits beyond QueueBudgetUS against
	// QueueViolationBudget.
	BurnQueue BurnSLO = "queue-wait"
)

// BurnConfig parameterises the evaluator. The zero BurnConfig means
// DefaultBurnConfig, the shipped SRE-workbook policy; any other is used
// as given (tests and the E25 experiment compress the windows to
// seconds).
type BurnConfig struct {
	// Fast (paging) window pair and threshold.
	FastShort time.Duration // default 5m
	FastLong  time.Duration // default 1h
	FastRate  float64       // default 14.4
	// Slow (ticketing) window pair and threshold.
	SlowShort time.Duration // default 30m
	SlowLong  time.Duration // default 6h
	SlowRate  float64       // default 6
	// ShedBudget is the SLO's allowed shed fraction (default 0.25,
	// matching the MaxShedRatio rule).
	ShedBudget float64
	// QueueViolationBudget is the allowed fraction of requests with
	// queue wait over QueueBudgetUS (default 0.05).
	QueueViolationBudget float64
	// MinRequests gates evaluation: a lookback window with fewer
	// presented requests than this is too thin to alert on (default 10).
	MinRequests int64
}

// DefaultBurnConfig returns the shipped policy.
func DefaultBurnConfig() BurnConfig {
	return BurnConfig{
		FastShort: 5 * time.Minute, FastLong: time.Hour, FastRate: 14.4,
		SlowShort: 30 * time.Minute, SlowLong: 6 * time.Hour, SlowRate: 6,
		ShedBudget:           0.25,
		QueueViolationBudget: 0.05,
		MinRequests:          10,
	}
}

// BurnAlert is the evaluation of one (SLO, speed) pair.
type BurnAlert struct {
	SLO   BurnSLO `json:"slo"`
	Speed string  `json:"speed"` // "fast" or "slow"
	// Firing reports whether both windows burn at or above Rate.
	Firing bool `json:"firing"`
	// ShortBurn / LongBurn are the measured burn rates (error fraction
	// over budget) in the short and long lookback windows.
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	// Rate is the firing threshold for this pair.
	Rate float64 `json:"rate"`
	// Short / Long are the lookback window lengths.
	Short time.Duration `json:"short_ns"`
	Long  time.Duration `json:"long_ns"`
	// Tenant is the label of the top offender in the short window — the
	// tenant contributing the most budget-relevant errors — when one
	// contributes a strict majority; "" otherwise.
	Tenant string `json:"tenant,omitempty"`
}

// Detail renders the alert the way the event bus and nxtop show it.
func (a BurnAlert) Detail() string {
	state := "resolved"
	if a.Firing {
		state = "firing"
	}
	s := fmt.Sprintf("%s %s burn %s: %.1fx over %v and %.1fx over %v (threshold %.1fx)",
		a.SLO, a.Speed, state, a.ShortBurn, a.Short, a.LongBurn, a.Long, a.Rate)
	if a.Tenant != "" {
		s += ", top offender " + a.Tenant
	}
	return s
}

// burnAccum sums the budget-relevant numerators and denominators of a
// window span.
type burnAccum struct {
	presented int64 // completions + sheds (shed SLI denominator)
	shed      int64
	queueObs  int64
	queueOver int64
	byTenant  map[string]*burnAccum // short-window offender attribution
}

func (b *burnAccum) add(w *Window, tenants bool) {
	b.presented += w.Requests + w.Shed
	b.shed += w.Shed
	b.queueObs += w.QueueObs
	b.queueOver += w.QueueOver
	if !tenants {
		return
	}
	for i := range w.Tenants {
		tw := &w.Tenants[i]
		if b.byTenant == nil {
			b.byTenant = make(map[string]*burnAccum)
		}
		t := b.byTenant[tw.Tenant]
		if t == nil {
			t = &burnAccum{}
			b.byTenant[tw.Tenant] = t
		}
		t.presented += tw.Requests + tw.Shed
		t.shed += tw.Shed
		t.queueObs += tw.QueueObs
		t.queueOver += tw.QueueOver
	}
}

// burn returns the burn rate of one SLO over the accumulated span.
func (b *burnAccum) burn(slo BurnSLO, cfg BurnConfig) float64 {
	switch slo {
	case BurnShed:
		if b.presented == 0 {
			return 0
		}
		return float64(b.shed) / float64(b.presented) / cfg.ShedBudget
	case BurnQueue:
		if b.queueObs == 0 {
			return 0
		}
		return float64(b.queueOver) / float64(b.queueObs) / cfg.QueueViolationBudget
	}
	return 0
}

// errors returns the SLO's error numerator (for offender attribution).
func (b *burnAccum) errors(slo BurnSLO) int64 {
	if slo == BurnShed {
		return b.shed
	}
	return b.queueOver
}

// accumulate sums the windows whose end falls within lookback of now.
// Windows straddling the boundary count whole — at sampler granularity
// the error is one interval, and counting whole keeps sums monotone.
func accumulate(windows []Window, now time.Time, lookback time.Duration, tenants bool) burnAccum {
	var acc burnAccum
	cutoff := now.Add(-lookback)
	for i := range windows {
		if windows[i].End.After(cutoff) {
			acc.add(&windows[i], tenants)
		}
	}
	return acc
}

// topOffender returns the tenant label holding a strict majority of the
// SLO's errors in the accumulated span, "" when none dominates.
func topOffender(acc *burnAccum, slo BurnSLO) string {
	total := acc.errors(slo)
	if total <= 0 {
		return ""
	}
	best, bestN := "", int64(0)
	for t, b := range acc.byTenant {
		if n := b.errors(slo); n > bestN {
			best, bestN = t, n
		}
	}
	if bestN*2 > total {
		return best
	}
	return ""
}

// EvaluateBurn computes all four (SLO, speed) alerts over the window
// ring. now anchors the lookbacks (pass time.Now() outside tests). The
// result is deterministic and stateless; edge-triggering lives in the
// server, which compares successive evaluations.
func EvaluateBurn(windows []Window, cfg BurnConfig, now time.Time) []BurnAlert {
	if cfg == (BurnConfig{}) {
		cfg = DefaultBurnConfig()
	}
	type pair struct {
		speed       string
		short, long time.Duration
		rate        float64
	}
	pairs := []pair{
		{"fast", cfg.FastShort, cfg.FastLong, cfg.FastRate},
		{"slow", cfg.SlowShort, cfg.SlowLong, cfg.SlowRate},
	}
	var out []BurnAlert
	for _, slo := range []BurnSLO{BurnShed, BurnQueue} {
		for _, p := range pairs {
			short := accumulate(windows, now, p.short, true)
			long := accumulate(windows, now, p.long, false)
			a := BurnAlert{
				SLO: slo, Speed: p.speed,
				Short: p.short, Long: p.long, Rate: p.rate,
				ShortBurn: short.burn(slo, cfg),
				LongBurn:  long.burn(slo, cfg),
			}
			a.Firing = a.ShortBurn >= p.rate && a.LongBurn >= p.rate &&
				long.presented >= cfg.MinRequests
			if a.Firing {
				a.Tenant = topOffender(&short, slo)
			}
			out = append(out, a)
		}
	}
	return out
}
