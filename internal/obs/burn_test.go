package obs

import (
	"strings"
	"testing"
	"time"

	"nxzip/internal/telemetry"
)

// --- multi-window burn-rate evaluation ---

// burnCfg is the compressed test policy: fast 300ms/1s at 1.5x, slow
// 600ms/2s at 1.2x.
func burnCfg() BurnConfig {
	return BurnConfig{
		FastShort: 300 * time.Millisecond, FastLong: time.Second, FastRate: 1.5,
		SlowShort: 600 * time.Millisecond, SlowLong: 2 * time.Second, SlowRate: 1.2,
		ShedBudget:           0.25,
		QueueViolationBudget: 0.05,
		MinRequests:          10,
	}
}

// burnWindows builds n consecutive 100ms windows ending at now, each
// cloned from proto (with Start/End filled in).
func burnWindows(now time.Time, n int, proto Window) []Window {
	out := make([]Window, n)
	for i := range out {
		w := proto
		w.End = now.Add(-time.Duration(n-1-i) * 100 * time.Millisecond)
		w.Start = w.End.Add(-100 * time.Millisecond)
		out[i] = w
	}
	return out
}

func alertFor(t *testing.T, alerts []BurnAlert, slo BurnSLO, speed string) BurnAlert {
	t.Helper()
	for _, a := range alerts {
		if a.SLO == slo && a.Speed == speed {
			return a
		}
	}
	t.Fatalf("no %s/%s alert in %v", slo, speed, alerts)
	return BurnAlert{}
}

func TestBurnFiresOnShedStormWithOffender(t *testing.T) {
	now := time.Now()
	// 1s of storm: 60 completions + 140 sheds per window (70% shed,
	// burn 2.8x over a 0.25 budget), with t7 holding 120 of each
	// window's sheds — a strict majority.
	storm := burnWindows(now, 10, Window{
		Requests: 60, Shed: 140,
		Tenants: []TenantWindow{
			{Tenant: "t1", Requests: 40, Shed: 20},
			{Tenant: "t7", Requests: 20, Shed: 120},
		},
	})
	// Preceded by 1s of clean traffic.
	clean := burnWindows(now.Add(-time.Second), 10, Window{Requests: 100})
	windows := append(clean, storm...)

	alerts := EvaluateBurn(windows, burnCfg(), now)
	if len(alerts) != 4 {
		t.Fatalf("got %d alerts, want 4", len(alerts))
	}
	fast := alertFor(t, alerts, BurnShed, "fast")
	if !fast.Firing {
		t.Fatalf("shed/fast not firing: %+v", fast)
	}
	if fast.ShortBurn < 2.7 || fast.ShortBurn > 2.9 {
		t.Fatalf("shed/fast short burn %.2f, want ~2.8", fast.ShortBurn)
	}
	if fast.Tenant != "t7" {
		t.Fatalf("shed/fast top offender %q, want t7", fast.Tenant)
	}
	slow := alertFor(t, alerts, BurnShed, "slow")
	if !slow.Firing || slow.Tenant != "t7" {
		t.Fatalf("shed/slow: %+v", slow)
	}
	// No queue-wait data: those alerts stay quiet.
	for _, speed := range []string{"fast", "slow"} {
		if a := alertFor(t, alerts, BurnQueue, speed); a.Firing {
			t.Fatalf("queue/%s firing with no queue data: %+v", speed, a)
		}
	}
	// The alert renders its state and offender for the event bus.
	if d := fast.Detail(); !containsAll(d, "firing", "t7", "shed-ratio") {
		t.Fatalf("Detail missing fields: %q", d)
	}
}

func TestBurnQuietOnHealthyTraffic(t *testing.T) {
	now := time.Now()
	windows := burnWindows(now, 20, Window{Requests: 100, QueueObs: 100})
	for _, a := range EvaluateBurn(windows, burnCfg(), now) {
		if a.Firing {
			t.Fatalf("alert firing on clean traffic: %+v", a)
		}
		if a.Tenant != "" {
			t.Fatalf("quiet alert names a tenant: %+v", a)
		}
	}
}

func TestBurnMinRequestsGate(t *testing.T) {
	now := time.Now()
	// 75% shed ratio but only 8 presented requests per long window —
	// too thin to page on.
	windows := burnWindows(now, 4, Window{Requests: 1, Shed: 1})
	cfg := burnCfg()
	cfg.MinRequests = 1000
	for _, a := range EvaluateBurn(windows, cfg, now) {
		if a.Firing {
			t.Fatalf("alert fired under MinRequests: %+v", a)
		}
	}
}

func TestBurnNoMajorityNoOffender(t *testing.T) {
	now := time.Now()
	// Two tenants split the sheds exactly: neither holds a strict
	// majority, so the alert fires unattributed.
	windows := burnWindows(now, 20, Window{
		Requests: 20, Shed: 80,
		Tenants: []TenantWindow{
			{Tenant: "t1", Shed: 40},
			{Tenant: "t2", Shed: 40},
		},
	})
	fast := alertFor(t, EvaluateBurn(windows, burnCfg(), now), BurnShed, "fast")
	if !fast.Firing {
		t.Fatalf("shed/fast not firing: %+v", fast)
	}
	if fast.Tenant != "" {
		t.Fatalf("split sheds attributed to %q, want none", fast.Tenant)
	}
}

func TestBurnQueueWaitSLO(t *testing.T) {
	now := time.Now()
	// Half of all queue waits over budget: 0.5/0.05 = 10x burn, with t3
	// holding nearly all violations.
	windows := burnWindows(now, 20, Window{
		Requests: 100, QueueObs: 100, QueueOver: 50,
		Tenants: []TenantWindow{
			{Tenant: "t3", QueueObs: 60, QueueOver: 48},
			{Tenant: "t9", QueueObs: 40, QueueOver: 2},
		},
	})
	alerts := EvaluateBurn(windows, burnCfg(), now)
	fast := alertFor(t, alerts, BurnQueue, "fast")
	if !fast.Firing {
		t.Fatalf("queue/fast not firing: %+v", fast)
	}
	if fast.ShortBurn < 9.9 || fast.ShortBurn > 10.1 {
		t.Fatalf("queue/fast burn %.2f, want ~10", fast.ShortBurn)
	}
	if fast.Tenant != "t3" {
		t.Fatalf("queue offender %q, want t3", fast.Tenant)
	}
	if a := alertFor(t, alerts, BurnShed, "fast"); a.Firing {
		t.Fatalf("shed alert firing with zero sheds: %+v", a)
	}
}

func TestBurnConfigDefaults(t *testing.T) {
	got := BurnConfig{}.withDefaults()
	want := DefaultBurnConfig()
	if got != want {
		t.Fatalf("withDefaults() = %+v, want %+v", got, want)
	}
	// A partially-set config keeps its explicit fields.
	cfg := BurnConfig{FastRate: 2}.withDefaults()
	if cfg.FastRate != 2 || cfg.SlowRate != want.SlowRate {
		t.Fatalf("partial defaults: %+v", cfg)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// --- tenant window derivation ---

func TestTenantWindowsFromDelta(t *testing.T) {
	bounds := telemetry.BucketBounds()
	buckets := func(count, under int64) []int64 {
		b := make([]int64, len(bounds))
		for i := range b {
			if i >= queueBudgetIdx {
				b[i] = under
			} else {
				b[i] = under / 2
			}
		}
		return b
	}
	d := &telemetry.Snapshot{Histograms: []telemetry.HistogramSnapshot{
		{Name: telemetry.TenantLatencyMetric, Label: "t5/interactive/ok", Count: 10},
		{Name: telemetry.TenantLatencyMetric, Label: "t5/interactive/shed", Count: 5},
		{Name: telemetry.TenantLatencyMetric, Label: "t5/batch/ok", Count: 3},
		{Name: telemetry.TenantQueueWaitMetric, Label: "t5", Count: 13, Buckets: buckets(13, 8), P50: 40, P99: 900},
		{Name: telemetry.TenantLatencyMetric, Label: "tover/batch/ok", Count: 2},
		{Name: "nx.queue_wait_us", Label: "", Count: 99}, // not a tenant row
	}}
	rows := tenantWindows(d, 2.0)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (t5, tover): %+v", len(rows), rows)
	}
	t5 := rows[0]
	if t5.Tenant != "t5" {
		t.Fatalf("rows not sorted by label: %+v", rows)
	}
	if t5.Requests != 13 || t5.Shed != 5 {
		t.Fatalf("t5 requests/shed = %d/%d, want 13/5", t5.Requests, t5.Shed)
	}
	if want := 5.0 / 18.0; t5.ShedRatio != want {
		t.Fatalf("t5 shed ratio %.3f, want %.3f", t5.ShedRatio, want)
	}
	if t5.ReqPerSec != 6.5 {
		t.Fatalf("t5 req/s %.2f, want 6.5 (13 over 2s)", t5.ReqPerSec)
	}
	if t5.QueueObs != 13 || t5.QueueOver != 5 {
		t.Fatalf("t5 queue obs/over = %d/%d, want 13/5", t5.QueueObs, t5.QueueOver)
	}
	if t5.QueueP50 != 40 || t5.QueueP99 != 900 {
		t.Fatalf("t5 queue percentiles %+v", t5)
	}
	if rows[1].Tenant != "tover" || rows[1].Requests != 2 {
		t.Fatalf("overflow row: %+v", rows[1])
	}
}

// TestTenantOfLabelShapes runs the tenant-plane row shapes through the
// shared parser: the tenant segment of a queue-wait or latency row, ""
// for anything else, and the outcome a latency row carries.
func TestTenantOfLabelShapes(t *testing.T) {
	cases := map[string]string{
		"t5":                  "t5",
		"t5/interactive/ok":   "t5",
		"tover":               "tover",
		"tover/batch/shed":    "tover",
		"t5/extra/deep/row":   "",
		"drawer0/cp1":         "",
		"":                    "",
		"x9":                  "",
		"t5!/interactive/ok":  "",
		"t12/background/shed": "t12",
	}
	for in, want := range cases {
		if got, _, _ := telemetry.ParseTenantRow(in); got != want {
			t.Errorf("ParseTenantRow(%q) tenant = %q, want %q", in, got, want)
		}
	}
	outcomes := map[string]telemetry.Outcome{
		"t5":                  telemetry.OutcomeCount,
		"t5/interactive/ok":   telemetry.OutcomeOK,
		"tover/batch/shed":    telemetry.OutcomeShed,
		"t12/background/shed": telemetry.OutcomeShed,
		"t7/batch/degraded":   telemetry.OutcomeDegraded,
	}
	for in, want := range outcomes {
		if _, got, ok := telemetry.ParseTenantRow(in); !ok || got != want {
			t.Errorf("ParseTenantRow(%q) outcome = %v (ok %v), want %v", in, got, ok, want)
		}
	}
	if _, _, ok := telemetry.ParseTenantRow("t5/batch/bogus"); ok {
		t.Error(`ParseTenantRow("t5/batch/bogus") accepted an unknown outcome`)
	}
}
