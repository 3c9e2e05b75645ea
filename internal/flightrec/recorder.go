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
//     queue-wait or total latency. Everything else is recycled back to
//     the pooled tracer, so the steady-state request path stays
//     allocation-free with the recorder attached.
//
// The recorder is a telemetry.Sink: Finish(span) parks the span in a
// fixed pending table keyed by RequestID; the root API's Complete(digest)
// call decides retention once the request's final outcome is known —
// that is what "tail-based" means: the keep/drop decision happens at the
// tail of the request, not at its head.
//
// Postmortems (postmortem.go) snapshot the rings plus node state into a
// JSONL bundle when the SLO engine flips unhealthy, bounding the window
// between "it broke" and "we captured why".
package flightrec

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nxzip/internal/obs"
	"nxzip/internal/telemetry"
)

// Options sizes the recorder. Every bound has a default chosen so the
// whole recorder is a few hundred KiB; all state is allocated up front.
type Options struct {
	// DigestRing is how many per-request digests the ring holds
	// (<=0 → 4096).
	DigestRing int
	// Retained bounds the full spans kept by the tail sampler
	// (<=0 → 64 requests; each request may hold several spans).
	Retained int
	// Pending sizes the table of in-flight requests awaiting their
	// retention decision (<=0 → 512 slots).
	Pending int
	// SlowFactor scales the rolling p99 for the slow-request predicate:
	// a request is slow when total latency or queue wait exceeds
	// SlowFactor × the respective p99 (<=0 → 1.0).
	SlowFactor float64
	// MinSamples gates the slow predicate until the latency window has
	// seen this many requests (<=0 → 128).
	MinSamples int
	// Window is the rolling latency window length (<=0 → 512).
	Window int
	// Dir is where postmortem bundles land ("" disables disk bundles;
	// TriggerPostmortem still counts and reports).
	Dir string
	// MaxBundles bounds the postmortem directory; the oldest bundle is
	// deleted to admit a new one (<=0 → 8).
	MaxBundles int
}

func (o Options) withDefaults() Options {
	if o.DigestRing <= 0 {
		o.DigestRing = 4096
	}
	if o.Retained <= 0 {
		o.Retained = 64
	}
	if o.Pending <= 0 {
		o.Pending = 512
	}
	if o.SlowFactor <= 0 {
		o.SlowFactor = 1.0
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 128
	}
	if o.Window <= 0 {
		o.Window = 512
	}
	if o.MaxBundles <= 0 {
		o.MaxBundles = 8
	}
	return o
}

// pendSpanCap bounds the spans parked per in-flight request: the
// original dispatch plus failover hops and a fault resubmit all fit; a
// pathological request beyond it drops (and recycles) the extras.
const pendSpanCap = 8

// recalcEvery is how many completions pass between p99 recomputations —
// the sort cost is amortized so Complete stays O(1) in the common case.
const recalcEvery = 64

type pendSlot struct {
	req   uint64
	spans []*telemetry.Span // preallocated, cap pendSpanCap
}

// Retained is one tail-sampled request: its digest plus every span the
// request produced (original dispatch, failover hops, fault resubmits).
type Retained struct {
	Digest telemetry.Digest
	Spans  []*telemetry.Span
}

// retEntry is one slot of the retained ring: a request's digest and
// the spans it parked, spans[:n].
type retEntry struct {
	d     telemetry.Digest
	spans [pendSpanCap]*telemetry.Span
	n     int
}

// Sources are the node-state closures a postmortem bundle snapshots.
// All fields are optional; absent sources simply leave their section out
// of the bundle. Set once at wiring time, before traffic.
type Sources struct {
	// Snapshot returns the node's merged metrics snapshot.
	Snapshot func() *telemetry.Snapshot
	// Devices returns the per-device status table.
	Devices func() []obs.DeviceStatus
	// Events returns up to n recent bus events, oldest first.
	Events func(n int) []obs.Event
	// Config returns the node configuration (any JSON-encodable value).
	Config func() any
	// Health returns the SLO report that triggered (or would trigger)
	// the postmortem.
	Health func() any
}

// Recorder is the flight recorder. It implements telemetry.Sink; wire
// it with NewPooledTracer(rec) (or rec.Tracer()) so consumed spans
// recycle. All methods are safe for concurrent use.
type Recorder struct {
	opt Options

	tracer atomic.Pointer[telemetry.Tracer]

	mu      sync.Mutex
	digests telemetry.Ring[telemetry.Digest]
	pend    []pendSlot
	ret     telemetry.Ring[retEntry]

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

// New builds a recorder with all state preallocated.
func New(opts Options) *Recorder {
	o := opts.withDefaults()
	r := &Recorder{
		opt:      o,
		digests:  telemetry.NewRing[telemetry.Digest](o.DigestRing),
		pend:     make([]pendSlot, o.Pending),
		ret:      telemetry.NewRing[retEntry](o.Retained),
		totWin:   telemetry.NewRing[float64](o.Window),
		queueWin: telemetry.NewRing[float64](o.Window),
		win:      make([]float64, 0, o.Window),
		top:      make([]float64, 0, o.Window-o.Window*99/100),
	}
	for i := range r.pend {
		r.pend[i].spans = make([]*telemetry.Span, 0, pendSpanCap)
	}
	return r
}

// SetSources installs the node-state closures postmortem bundles read.
func (r *Recorder) SetSources(s Sources) {
	r.mu.Lock()
	r.srcs = s
	r.mu.Unlock()
}

// Tracer returns the recorder's pooled tracer, creating it on first
// call. Spans it hands out flow back through Emit and recycle.
func (r *Recorder) Tracer() *telemetry.Tracer {
	if t := r.tracer.Load(); t != nil {
		return t
	}
	t := telemetry.NewPooledTracer(r)
	if r.tracer.CompareAndSwap(nil, t) {
		return t
	}
	return r.tracer.Load()
}

// Emit parks a finished span until its request's Complete call decides
// retention. Spans without a RequestID cannot be correlated and recycle
// immediately. Implements telemetry.Sink.
func (r *Recorder) Emit(s *telemetry.Span) {
	if s == nil || r.closed.Load() {
		return
	}
	if s.ReqID == 0 {
		r.recycle(s)
		return
	}
	r.mu.Lock()
	slot := &r.pend[s.ReqID%uint64(len(r.pend))]
	if slot.req != s.ReqID {
		// Slot collision or first span of a new request: evict whatever
		// was parked (its request will simply retain digest-only if it
		// turns out interesting) and claim the slot.
		for _, old := range slot.spans {
			r.recycle(old)
		}
		slot.spans = slot.spans[:0]
		slot.req = s.ReqID
	}
	if len(slot.spans) < cap(slot.spans) {
		slot.spans = append(slot.spans, s)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.recycle(s)
}

// Close marks the recorder closed; further Emits recycle immediately.
// Implements telemetry.Sink.
func (r *Recorder) Close() error {
	r.closed.Store(true)
	return nil
}

func (r *Recorder) recycle(s *telemetry.Span) {
	r.tracer.Load().Recycle(s) // nil-safe: no tracer yet → drop to GC
}

// Complete records the request's digest (stamping its Seq) and makes
// the tail-sampling decision for any spans parked under d.Req: retain
// the whole request history when it erred, degraded, re-dispatched, or
// ran slow relative to the rolling p99s; recycle otherwise. This is the
// one call the root API makes per request after the outcome is known.
func (r *Recorder) Complete(d *telemetry.Digest) uint64 {
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
	retain := d.Outcome != telemetry.OutcomeOK || d.Attempts > 1 || r.slowLocked(d)
	slot := &r.pend[d.Req%uint64(len(r.pend))]
	if slot.req == d.Req && d.Req != 0 {
		if retain {
			r.retainLocked(d, slot.spans)
		} else {
			for _, s := range slot.spans {
				r.recycleLocked(s)
			}
		}
		slot.req = 0
		slot.spans = slot.spans[:0]
	} else if retain {
		r.retainLocked(d, nil)
	}
	r.mu.Unlock()
	return seq
}

// recycleLocked recycles under r.mu (Recycle takes no recorder locks,
// so there is no inversion).
func (r *Recorder) recycleLocked(s *telemetry.Span) { r.recycle(s) }

// retainLocked moves the request into the retained ring, evicting (and
// recycling) the oldest retained request when full.
func (r *Recorder) retainLocked(d *telemetry.Digest, spans []*telemetry.Span) {
	e := r.ret.Next()
	for _, old := range e.spans[:e.n] {
		r.recycleLocked(old)
	}
	e.d = *d
	e.n = copy(e.spans[:], spans)
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
	if r.totWin.Total() < uint64(r.opt.MinSamples) {
		return false
	}
	return d.TotalUS > r.opt.SlowFactor*r.p99Tot ||
		d.QueueUS > r.opt.SlowFactor*r.p99Queue
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
// wait, in microseconds (zero until MinSamples requests complete and
// the first recalculation runs).
func (r *Recorder) P99s() (totalUS, queueUS float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.p99Tot, r.p99Queue
}

// RetainedRequests returns copies of the tail-sampled requests, oldest
// first. Span pointers stay owned by the recorder: they are only valid
// until eviction, so callers wanting to keep one must serialize it now
// (Status and the postmortem writer do exactly that).
func (r *Recorder) RetainedRequests() []Retained {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := r.ret.Last(0)
	out := make([]Retained, len(held))
	for i, e := range held {
		out[i] = Retained{Digest: e.d, Spans: append([]*telemetry.Span(nil), e.spans[:e.n]...)}
	}
	return out
}

// Status digests the recorder for dashboards and /snapshot.
func (r *Recorder) Status() *obs.FlightStatus {
	r.mu.Lock()
	retained := r.ret.Held()
	p99t, p99q := r.p99Tot, r.p99Queue
	r.mu.Unlock()
	r.pmMu.Lock()
	lastAt, lastReason := r.lastAt, r.lastReason
	r.pmMu.Unlock()
	return &obs.FlightStatus{
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
