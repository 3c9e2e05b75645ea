// Package flightrec is the always-on flight recorder: bounded-overhead
// request history that is already in memory when something goes wrong.
//
// Two tiers, one per cost class:
//
//   - A digest ring records a fixed-size Digest for EVERY root-level
//     request — identity, size, device, queue-wait, latency, attempts,
//     outcome — at the cost of one locked struct copy. This is the index
//     a postmortem greps first.
//   - A tail-based sampler retains full telemetry spans only for the
//     interesting requests: errored, degraded (software fallback),
//     re-dispatched (failover), or slow relative to the rolling p99 of
//     queue-wait or total latency.
//
// The recorder installs no tracer and receives no span while a request
// runs. The request records its spans into storage of its own (a
// telemetry.SpanLog) and hands them over with its digest in one
// Complete call, once its final outcome is known. That is what
// "tail-based" means: the keep/drop decision happens at the tail of the
// request, not at its head. Only a kept request's spans are copied, into
// storage the retained ring made up front, so the steady-state request
// path stays allocation-free with the recorder attached, whether the
// request is kept or not.
//
// Postmortems (postmortem.go) snapshot the rings plus node state into a
// JSONL bundle when the SLO engine flips unhealthy, bounding the window
// between "it broke" and "we captured why".
package flightrec

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nxzip/internal/telemetry"
)

// The recorder's bounds, chosen so the whole recorder is a few hundred
// KiB; all state is allocated up front.
const (
	// digestCap is how many per-request digests the ring holds.
	digestCap = 4096
	// retainedCap bounds the requests whose full spans the tail sampler
	// keeps (each request may hold up to telemetry.MaxRequestSpans).
	retainedCap = 64
	// minSamples gates the slow predicate until the latency window has
	// seen this many requests.
	minSamples = 128
	// latencyWindow is the rolling latency window length.
	latencyWindow = 512
	// maxBundles bounds the postmortem directory; the oldest bundle is
	// deleted to admit a new one.
	maxBundles = 8
)

// recalcEvery is how many completions pass between p99 recomputations —
// the sort cost is amortized so Complete stays O(1) in the common case.
const recalcEvery = 64

// Retained is one tail-sampled request: its digest plus every span the
// request produced (original dispatch, failover hops, fault resubmits).
type Retained struct {
	Digest telemetry.Digest
	Spans  []*telemetry.Span
}

// retEntry is one slot of the retained ring: a request's digest and
// copies of its spans, in storage the slot keeps from one request to the
// next.
type retEntry struct {
	d     telemetry.Digest
	spans []telemetry.Span
}

// Sources are the node-state closures a postmortem bundle snapshots.
// All fields are optional; absent sources simply leave their section out
// of the bundle. Set once at wiring time, before traffic.
type Sources struct {
	// Snapshot returns the node's merged metrics snapshot.
	Snapshot func() *telemetry.Snapshot
	// Devices returns the per-device status table.
	Devices func() []telemetry.DeviceStatus
	// Events returns up to n recent bus events, oldest first.
	Events func(n int) []telemetry.Event
	// Config returns the node configuration.
	Config func() *Config
	// Health returns the node's healthy and total device counts.
	Health func() *Health
}

// Config is the node-configuration section of a postmortem bundle.
type Config struct {
	Name      string   `json:"name"`
	Devices   int      `json:"devices"`
	Dispatch  string   `json:"dispatch,omitempty"`
	TableMode int      `json:"table_mode"`
	Labels    []string `json:"labels"`
}

// Health is the health section of a postmortem bundle.
type Health struct {
	HealthyDevices int `json:"healthy_devices"`
	TotalDevices   int `json:"total_devices"`
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use.
type Recorder struct {
	// dir is where postmortem bundles land ("" disables disk bundles;
	// TriggerPostmortem still counts and reports).
	dir string

	mu      sync.Mutex
	digests telemetry.Ring[telemetry.Digest]
	ret     telemetry.Ring[retEntry]
	// slab is the retained ring's span storage, telemetry.KeptSpans spans
	// for each slot, handed to the slots as they first fill.
	slab    []telemetry.Span
	spanSeq uint64 // the IDs of retained spans

	// Rolling latency windows in microseconds, plus the amortized p99s.
	totWin    telemetry.Ring[float64]
	queueWin  telemetry.Ring[float64]
	win       []float64 // recalcLocked's scratch: one window's samples
	top       []float64 // p99Of's scratch: the largest samples of a window
	p99Tot    float64
	p99Queue  float64
	sinceCalc int

	srcs Sources

	closed atomic.Bool

	// Postmortem state (postmortem.go).
	pmCount    atomic.Int64
	pmMu       sync.Mutex
	lastAt     time.Time
	lastReason string
}

// New builds a recorder with all state preallocated. Postmortem bundles
// land in dir ("" keeps the recorder memory-only).
func New(dir string) *Recorder {
	r := &Recorder{
		dir:      dir,
		digests:  telemetry.NewRing[telemetry.Digest](digestCap),
		ret:      telemetry.NewRing[retEntry](retainedCap),
		slab:     telemetry.MakeSpans(retainedCap * telemetry.KeptSpans),
		totWin:   telemetry.NewRing[float64](latencyWindow),
		queueWin: telemetry.NewRing[float64](latencyWindow),
		win:      make([]float64, 0, latencyWindow),
		top:      make([]float64, 0, latencyWindow-latencyWindow*99/100),
	}
	return r
}

// SetSources installs the node-state closures postmortem bundles read.
func (r *Recorder) SetSources(s Sources) {
	r.mu.Lock()
	r.srcs = s
	r.mu.Unlock()
}

// Close marks the recorder closed: it digests and keeps nothing more.
func (r *Recorder) Close() error {
	r.closed.Store(true)
	return nil
}

// Complete records the request's digest (stamping its Seq) and makes the
// tail-sampling decision for its spans: it keeps a copy of the whole
// request history when the request erred, degraded, re-dispatched, or ran
// slow relative to the rolling p99s, and touches the spans not at all
// otherwise. The spans stay the caller's. This is the one call the root
// API makes per request after the outcome is known.
func (r *Recorder) Complete(d *telemetry.Digest, spans []telemetry.Span) uint64 {
	if r.closed.Load() {
		return 0
	}
	r.mu.Lock()
	seq := r.digests.Total() + 1
	d.Seq = seq
	r.digests.Put(*d)
	r.totWin.Put(d.TotalUS)
	r.queueWin.Put(d.QueueUS)
	r.sinceCalc++
	if r.sinceCalc >= recalcEvery {
		r.sinceCalc = 0
		r.recalcLocked()
	}
	if d.Outcome != telemetry.OutcomeOK || d.Attempts > 1 || r.slowLocked(d) {
		r.retainLocked(d, spans)
	}
	r.mu.Unlock()
	return seq
}

// retainLocked copies the request into the retained ring, over the
// oldest retained request when full, and numbers its spans.
func (r *Recorder) retainLocked(d *telemetry.Digest, spans []telemetry.Span) {
	e := r.ret.Next()
	if e.spans == nil { // the slot's first request: its storage comes from the slab
		i := int(r.ret.Total()-1) * telemetry.KeptSpans
		e.spans = r.slab[i : i : i+telemetry.KeptSpans]
	}
	if more := len(spans) - cap(e.spans); more > 0 {
		e.spans = append(e.spans[:cap(e.spans)], make([]telemetry.Span, more)...)
	}
	e.d = *d
	e.spans = e.spans[:len(spans)]
	for i := range e.spans {
		spans[i].CopyTo(&e.spans[i])
		r.spanSeq++
		e.spans[i].ID = r.spanSeq
	}
}

// recalcLocked recomputes the rolling p99s from the latency windows.
func (r *Recorder) recalcLocked() {
	r.win = r.totWin.AppendLast(r.win[:0], 0)
	r.p99Tot = p99Of(r.top, r.win)
	r.win = r.queueWin.AppendLast(r.win[:0], 0)
	r.p99Queue = p99Of(r.top, r.win)
}

// p99Of returns what sorting win and reading index n*99/100 would: the
// smallest of the n - n*99/100 largest samples, which one pass keeps in
// top[:0], in ascending order.
func p99Of(top, win []float64) float64 {
	keep := len(win) - len(win)*99/100
	top = top[:0]
	for _, v := range win {
		i := len(top)
		if i < keep {
			top = top[:i+1] // a free slot at the end: v sinks into place from there
			for ; i > 0 && top[i-1] > v; i-- {
				top[i] = top[i-1]
			}
			top[i] = v
		} else if v > top[0] {
			// v pushes the smallest out: it rises into place from slot 0.
			for i = 1; i < keep && top[i] < v; i++ {
				top[i-1] = top[i]
			}
			top[i-1] = v
		}
	}
	return top[0]
}

func (r *Recorder) slowLocked(d *telemetry.Digest) bool {
	if r.totWin.Total() < minSamples {
		return false
	}
	return d.TotalUS > r.p99Tot || d.QueueUS > r.p99Queue
}

// Digests returns up to n recent digests, oldest first (n<=0: all held).
func (r *Recorder) Digests(n int) []telemetry.Digest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.digests.Last(n)
}

// Slowest returns up to n held digests ordered by TotalUS descending,
// the newest first among equals: the "slowest recent requests" feed for
// dashboards.
func (r *Recorder) Slowest(n int) []telemetry.Digest {
	all := r.Digests(0)
	sort.Slice(all, func(i, j int) bool {
		if all[i].TotalUS != all[j].TotalUS {
			return all[i].TotalUS > all[j].TotalUS
		}
		return all[i].Seq > all[j].Seq
	})
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

// Seq returns the total number of requests digested.
func (r *Recorder) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.digests.Total()
}

// P99s returns the recorder's rolling p99 of total latency and queue
// wait, in microseconds (zero until minSamples requests complete and
// the first recalculation runs).
func (r *Recorder) P99s() (totalUS, queueUS float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.p99Tot, r.p99Queue
}

// RetainedRequests returns copies of the tail-sampled requests, oldest
// first, spans included: the ring reuses its own storage.
func (r *Recorder) RetainedRequests() []Retained {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := r.ret.Last(0)
	out := make([]Retained, len(held))
	for i, e := range held {
		out[i] = Retained{Digest: e.d, Spans: make([]*telemetry.Span, len(e.spans))}
		for j := range e.spans {
			s := e.spans[j]
			s.Stages = slices.Clone(s.Stages)
			out[i].Spans[j] = &s
		}
	}
	return out
}

// Status digests the recorder for /snapshot and nxtop: how much history
// is in memory, the rolling tail thresholds, the postmortem trail, and
// the slowest recent requests.
type Status struct {
	// Requests is the total number of requests digested.
	Requests uint64 `json:"requests"`
	// Retained is how many requests currently hold full spans.
	Retained int `json:"retained"`
	// P99TotalUS / P99QueueUS are the recorder's rolling p99s (µs).
	P99TotalUS  float64 `json:"p99_total_us"`
	P99QueueUS  float64 `json:"p99_queue_us"`
	Postmortems int64   `json:"postmortems"`
	// LastTrigger/LastReason describe the most recent postmortem.
	LastTrigger time.Time `json:"last_trigger,omitzero"`
	LastReason  string    `json:"last_reason,omitempty"`
	// Slowest is the "slowest recent requests" feed, worst first.
	Slowest []telemetry.Digest `json:"slowest,omitempty"`
}

// Status digests the recorder for dashboards and /snapshot.
func (r *Recorder) Status() *Status {
	r.mu.Lock()
	retained := r.ret.Held()
	p99t, p99q := r.p99Tot, r.p99Queue
	r.mu.Unlock()
	r.pmMu.Lock()
	lastAt, lastReason := r.lastAt, r.lastReason
	r.pmMu.Unlock()
	return &Status{
		Requests:    r.Seq(),
		Retained:    retained,
		P99TotalUS:  p99t,
		P99QueueUS:  p99q,
		Postmortems: r.pmCount.Load(),
		LastTrigger: lastAt,
		LastReason:  lastReason,
		Slowest:     r.Slowest(5),
	}
}
