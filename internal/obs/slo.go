package obs

import (
	"fmt"

	"nxzip/internal/telemetry"
)

// slo.go is the health policy behind /healthz: a small rule engine
// evaluated over the merged snapshot and the topology health counts, so
// load balancers and tests can gate on one status code instead of
// scraping and thresholding metrics themselves.

// Inputs is what one evaluation sees: the merged node snapshot and the
// health scoreboard's device counts.
type Inputs struct {
	Snap           *telemetry.Snapshot
	HealthyDevices int
	Devices        int
}

// Rule is one SLO check. Check returns whether the rule holds, the
// measured value, and a human-readable detail for the report.
type Rule struct {
	Name  string
	Expr  string // the rule as an operator would write it, for the report
	Check func(Inputs) (ok bool, value float64, detail string)
}

// RuleResult is one rule's outcome in a health report.
type RuleResult struct {
	Name   string  `json:"name"`
	Expr   string  `json:"expr"`
	OK     bool    `json:"ok"`
	Value  float64 `json:"value"`
	Detail string  `json:"detail,omitempty"`
}

// HealthReport is the /healthz body: overall verdict plus every rule's
// result.
type HealthReport struct {
	Healthy bool         `json:"healthy"`
	Rules   []RuleResult `json:"rules"`
}

// Evaluate runs every rule; the node is healthy iff all hold.
func Evaluate(in Inputs, rules []Rule) HealthReport {
	rep := HealthReport{Healthy: true}
	for _, r := range rules {
		ok, v, detail := r.Check(in)
		rep.Rules = append(rep.Rules, RuleResult{Name: r.Name, Expr: r.Expr, OK: ok, Value: v, Detail: detail})
		if !ok {
			rep.Healthy = false
		}
	}
	return rep
}

// MinHealthyFraction requires healthy_devices/devices >= min. A node
// with no devices at all fails (there is nothing to serve hardware
// requests).
func MinHealthyFraction(min float64) Rule {
	return Rule{
		Name: "healthy-devices",
		Expr: fmt.Sprintf("healthy_devices/devices >= %g", min),
		Check: func(in Inputs) (bool, float64, string) {
			if in.Devices == 0 {
				return false, 0, "no devices"
			}
			f := float64(in.HealthyDevices) / float64(in.Devices)
			return f >= min, f, fmt.Sprintf("%d/%d healthy", in.HealthyDevices, in.Devices)
		},
	}
}

// MaxFallbackRatio bounds the fraction of completed operations that
// degraded to the software codec: nxzip.fallbacks / (nx.requests +
// nxzip.fallbacks). Idle nodes (no traffic yet) pass.
func MaxFallbackRatio(max float64) Rule {
	return Rule{
		Name: "degraded-fallback",
		Expr: fmt.Sprintf("fallbacks/(requests+fallbacks) <= %g", max),
		Check: func(in Inputs) (bool, float64, string) {
			if in.Snap == nil {
				return true, 0, "no snapshot"
			}
			fb := in.Snap.Counter("nxzip.fallbacks", "")
			req := in.Snap.Counter("nx.requests", "")
			total := fb + req
			if total == 0 {
				return true, 0, "no traffic"
			}
			f := float64(fb) / float64(total)
			return f <= max, f, fmt.Sprintf("%d of %d degraded", fb, total)
		},
	}
}

// MaxHistogramP99 bounds a histogram's p99 (over its recent sample
// ring). An absent or empty histogram passes — no observations means
// nothing violated the bound.
func MaxHistogramP99(name string, bound float64) Rule {
	return Rule{
		Name: "p99-" + name,
		Expr: fmt.Sprintf("p99(%s) <= %g", name, bound),
		Check: func(in Inputs) (bool, float64, string) {
			if in.Snap == nil {
				return true, 0, "no snapshot"
			}
			h, ok := in.Snap.Histogram(name, "")
			if !ok || h.Count == 0 {
				return true, 0, "no observations"
			}
			return h.P99 <= bound, h.P99, fmt.Sprintf("p99 %.1f over %d observations", h.P99, h.Count)
		},
	}
}

// MaxShedRatio bounds the fraction of offered requests refused by the
// admission gate: admission.shed / (admission.admitted + admission.shed),
// summed over every priority class. Shedding background traffic under a
// short burst is the gate working as designed; a sustained ratio above
// the bound means the node is running brownout as a steady state. Nodes
// without admission enabled (no counters) pass.
func MaxShedRatio(max float64) Rule {
	return Rule{
		Name: "overload-shed",
		Expr: fmt.Sprintf("shed/(admitted+shed) <= %g", max),
		Check: func(in Inputs) (bool, float64, string) {
			if in.Snap == nil {
				return true, 0, "no snapshot"
			}
			shed := in.Snap.CounterSum("admission.shed")
			admitted := in.Snap.CounterSum("admission.admitted")
			total := shed + admitted
			if total == 0 {
				return true, 0, "no gated traffic"
			}
			f := float64(shed) / float64(total)
			return f <= max, f, fmt.Sprintf("%d of %d shed", shed, total)
		},
	}
}

// DefaultRules is the shipped SLO: at least half the devices healthy,
// at most 10% of operations degraded to software, queue wait p99 under
// 100 ms, and at most 25% of gated traffic shed — generous bounds meant
// to catch broken, not busy.
func DefaultRules() []Rule {
	return []Rule{
		MinHealthyFraction(0.5),
		MaxFallbackRatio(0.10),
		MaxHistogramP99("nx.queue_wait_us", 100_000),
		MaxShedRatio(0.25),
	}
}
