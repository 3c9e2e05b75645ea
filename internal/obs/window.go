package obs

import (
	"sort"
	"sync"
	"time"

	"nxzip/internal/telemetry"
)

// window.go turns the registry's lifetime aggregates into rates over
// time: a Sampler takes the merged node snapshot on each tick, diffs
// consecutive snapshots (telemetry.Snapshot.Delta) and keeps a bounded
// ring of per-window samples, so throughput, request rate and queue-
// wait percentiles become time series a dashboard can plot.

// Window is one sampling interval's worth of activity, derived from the
// delta between two consecutive snapshots. Rates use the wall-clock
// window duration. QueueP50/P95/P99 are the queue-wait percentiles of
// the snapshot's bounded sample ring at window end (recent-biased, not
// strictly within-window); MeanQueueUS is exact within the window
// (delta sum over delta count).
type Window struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Deltas of the aggregate counters over the window.
	Requests     int64 `json:"requests"`
	InBytes      int64 `json:"in_bytes"`
	OutBytes     int64 `json:"out_bytes"`
	Fallbacks    int64 `json:"fallbacks"`
	Redispatches int64 `json:"redispatches"`
	Quarantines  int64 `json:"quarantines"`
	// Admission-gate deltas (0 when no gate is enabled).
	Admitted int64 `json:"admitted,omitempty"`
	Shed     int64 `json:"shed,omitempty"`
	// Derived rates.
	ReqPerSec float64 `json:"req_per_sec"`
	GBs       float64 `json:"gbs"` // uncompressed-side bytes per second / 1e9
	// Queue-wait latency, µs.
	MeanQueueUS float64 `json:"mean_queue_us"`
	QueueP50    float64 `json:"queue_p50_us"`
	QueueP95    float64 `json:"queue_p95_us"`
	QueueP99    float64 `json:"queue_p99_us"`
	// QueueOver / QueueObs are the within-window queue-wait observations
	// above QueueBudgetUS and in total, from the delta bucket rows — the
	// numerator and denominator of the queue-wait burn SLI.
	QueueOver int64 `json:"queue_over,omitempty"`
	QueueObs  int64 `json:"queue_obs,omitempty"`
	// Tenants breaks the window down per tenant label, from the delta of
	// the tenant accounting plane's labeled rows. Sorted by label; nil
	// when no tenant series exist.
	Tenants []TenantWindow `json:"tenants,omitempty"`
}

// TenantWindow is one tenant's share of a sampling window.
type TenantWindow struct {
	// Tenant is the series label ("t5", or the shared overflow label).
	Tenant string `json:"tenant"`
	// Requests / Shed are the tenant's within-window completions and
	// admission-gate refusals (from the latency vec's outcome cells).
	Requests  int64   `json:"requests"`
	Shed      int64   `json:"shed"`
	ReqPerSec float64 `json:"req_per_sec"`
	// ShedRatio is Shed over the tenant's total presented work
	// (completions + sheds).
	ShedRatio float64 `json:"shed_ratio"`
	// Queue-wait percentiles (µs) of the tenant's sample ring at window
	// end (recent-biased, like the global percentiles).
	QueueP50 float64 `json:"queue_p50_us"`
	QueueP99 float64 `json:"queue_p99_us"`
	// QueueOver / QueueObs mirror the window-level burn SLI per tenant.
	QueueOver int64 `json:"queue_over,omitempty"`
	QueueObs  int64 `json:"queue_obs,omitempty"`
}

// ringCap bounds the window ring: at the server's default 1-second
// interval this keeps the most recent two minutes.
const ringCap = 120

// QueueBudgetUS is the queue-wait SLO threshold: a request whose queue
// wait exceeds this many microseconds counts against the latency error
// budget. It must sit exactly on a telemetry bucket bound so the
// violation count falls out of the delta bucket rows. Matches the
// MaxHistogramP99 objective in DefaultRules.
const QueueBudgetUS = 100_000

// queueBudgetIdx locates QueueBudgetUS in the fixed bucket ladder once.
var queueBudgetIdx = sort.SearchFloat64s(telemetry.BucketBounds(), QueueBudgetUS)

// overBudget returns how many of a histogram's (delta) observations
// exceeded QueueBudgetUS, from the cumulative bucket rows.
func overBudget(h telemetry.HistogramSnapshot) int64 {
	if queueBudgetIdx >= len(h.Buckets) {
		return 0
	}
	return h.Count - h.Buckets[queueBudgetIdx]
}

// tenantWindows derives the per-tenant breakdown of one window from the
// delta's tenant-plane rows. dur is the window length in seconds.
func tenantWindows(d *telemetry.Snapshot, dur float64) []TenantWindow {
	byTenant := make(map[string]*TenantWindow)
	for _, h := range d.Histograms {
		if h.Name != telemetry.TenantLatencyMetric && h.Name != telemetry.TenantQueueWaitMetric {
			continue
		}
		t, o, ok := telemetry.ParseTenantRow(h.Label)
		if !ok {
			continue
		}
		tw := byTenant[t]
		if tw == nil {
			tw = &TenantWindow{Tenant: t}
			byTenant[t] = tw
		}
		switch {
		case h.Name == telemetry.TenantLatencyMetric && o == telemetry.OutcomeShed:
			tw.Shed += h.Count
		case h.Name == telemetry.TenantLatencyMetric:
			tw.Requests += h.Count
		default:
			tw.QueueObs += h.Count
			tw.QueueOver += overBudget(h)
			// The delta keeps the current snapshot's ring percentiles —
			// recent-biased, same contract as the window-level percentiles.
			tw.QueueP50, tw.QueueP99 = h.P50, h.P99
		}
	}
	if len(byTenant) == 0 {
		return nil
	}
	out := make([]TenantWindow, 0, len(byTenant))
	for _, tw := range byTenant {
		if total := tw.Requests + tw.Shed; total > 0 {
			tw.ShedRatio = float64(tw.Shed) / float64(total)
		}
		if dur > 0 {
			tw.ReqPerSec = float64(tw.Requests) / dur
		}
		out = append(out, *tw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Sampler computes Windows from a snapshot source, one per Tick: the
// server's watcher ticks it, tests and one-shot tools call Tick
// themselves. Safe for concurrent use.
type Sampler struct {
	snap func() *telemetry.Snapshot

	mu    sync.Mutex
	prev  *telemetry.Snapshot
	prevT time.Time
	ring  telemetry.Ring[Window]
}

// NewSampler builds a sampler over snap keeping the last ringCap
// windows. The first Tick establishes the baseline snapshot and yields
// a window covering activity since then.
func NewSampler(snap func() *telemetry.Snapshot) *Sampler {
	return &Sampler{snap: snap, ring: telemetry.NewRing[Window](ringCap)}
}

// Tick takes one sample: snapshot, delta against the previous sample,
// append to the ring. It returns the new window.
func (s *Sampler) Tick() Window {
	cur := s.snap()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	d := cur.Delta(s.prev)
	w := Window{
		Start:        s.prevT,
		End:          now,
		Requests:     d.Counter("nx.requests", ""),
		InBytes:      d.Counter("nx.in_bytes", ""),
		OutBytes:     d.Counter("nx.out_bytes", ""),
		Fallbacks:    d.Counter("nxzip.fallbacks", ""),
		Redispatches: d.Counter("nxzip.redispatches", ""),
		Quarantines:  d.CounterSum("topology.quarantines"),
		Admitted:     d.CounterSum("admission.admitted"),
		Shed:         d.CounterSum("admission.shed"),
	}
	if s.prevT.IsZero() {
		w.Start = now
	}
	dur := w.End.Sub(w.Start).Seconds()
	if dur > 0 {
		w.ReqPerSec = float64(w.Requests) / dur
		w.GBs = float64(max(w.InBytes, w.OutBytes)) / dur / 1e9
	}
	if h, ok := d.Histogram("nx.queue_wait_us", ""); ok {
		w.MeanQueueUS = h.Mean
		w.QueueP50, w.QueueP95, w.QueueP99 = h.P50, h.P95, h.P99
		w.QueueObs = h.Count
		w.QueueOver = overBudget(h)
	}
	w.Tenants = tenantWindows(d, dur)
	s.prev, s.prevT = cur, now
	s.ring.Put(w)
	return w
}

// Windows returns a copy of the ring, oldest first.
func (s *Sampler) Windows() []Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Last(0)
}

// Last returns the most recent window (zero Window when none yet).
func (s *Sampler) Last() Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring.Held() == 0 {
		return Window{}
	}
	return s.ring.Last(1)[0]
}
