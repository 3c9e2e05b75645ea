// Package telemetry is the observability layer of the accelerator model:
// a low-overhead metrics registry (atomic counters, gauges and bounded
// histograms, with labeled families) plus per-request trace spans that
// ride a CRB through its whole lifecycle — paste and credit wait, receive
// FIFO residency, translation (ERAT hits/misses and fault/resubmit
// rounds), the engine pipeline stages, and CSB completion — in both
// modelled device cycles and host wall-clock.
//
// The contract the request hot path depends on: with no tracer installed
// every instrument is a plain atomic update on a pre-resolved pointer —
// no allocation, no lock on counters/gauges, one short mutex on
// histograms — and span recording costs exactly one nil check.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"nxzip/internal/stats"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value with a high-water mark. Set and Add are
// atomic; Max tracks the largest value ever set.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores v and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	g.bumpMax(v)
}

// Add adjusts the gauge by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 {
	v := g.v.Add(delta)
	g.bumpMax(v)
	return v
}

func (g *Gauge) bumpMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// histogramWindow bounds the sample reservoir a Histogram keeps for
// percentile queries. Mean/min/max/count are exact over every
// observation; percentiles are computed over the most recent
// histogramWindow observations.
const histogramWindow = 4096

// bucketBounds is the fixed cumulative-bucket ladder every Histogram
// counts observations into: a 1-2.5-5 decade ladder spanning 1..5e8 in
// the instrument's own unit (microseconds for the latency histograms).
// Observations above the last bound land only in the implicit +Inf
// bucket (the total count). A fixed ladder keeps Observe allocation-free
// and makes per-device bucket rows mergeable by plain elementwise
// addition.
var bucketBounds = []float64{
	1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5,
	1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8,
}

// BucketBounds returns the shared histogram bucket ladder (callers must
// not modify it). HistogramSnapshot.Buckets is indexed the same way.
func BucketBounds() []float64 { return bucketBounds }

// Exemplar links one histogram bucket back to a concrete request: the
// most recent root-minted RequestID whose observation landed in the
// bucket, plus the observed value. Req 0 means the bucket has no
// exemplar (RequestIDs start at 1). Exemplars are the OpenMetrics
// bridge from an aggregate latency series to the flight recorder's
// per-request digests.
type Exemplar struct {
	Req   uint64  `json:"req"`
	Value float64 `json:"value"`
}

// Histogram records a distribution: an exact streaming summary
// (stats.Summary), per-bucket counts over the fixed ladder, plus a
// bounded ring of recent samples for percentile queries (stats.Samples
// at snapshot time). Observe never allocates after construction; a short
// mutex keeps snapshot-during-update tear-free. Exemplar slots (one per
// bucket, last slot = +Inf) are allocated lazily on the first
// ObserveExemplar call, so histograms bumped only via Observe pay
// nothing for the feature.
type Histogram struct {
	mu     sync.Mutex
	sum    stats.Summary
	ring   Ring[float64]
	counts []int64
	ex     []Exemplar // len(bucketBounds)+1 slots, nil until first ObserveExemplar
}

func newHistogram() *Histogram {
	return &Histogram{
		ring:   NewRing[float64](histogramWindow),
		counts: make([]int64, len(bucketBounds)),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.observeLocked(v)
	h.mu.Unlock()
}

// ObserveExemplar records one observation and stamps req as the
// exemplar of the bucket it lands in (the implicit +Inf bucket for
// values above the ladder). Allocation-free after the first call.
func (h *Histogram) ObserveExemplar(v float64, req uint64) {
	h.mu.Lock()
	i := h.observeLocked(v)
	if h.ex == nil {
		h.ex = make([]Exemplar, len(bucketBounds)+1)
	}
	h.ex[i] = Exemplar{Req: req, Value: v}
	h.mu.Unlock()
}

// observeLocked is the shared bump body; it returns the bucket index the
// observation landed in (len(bucketBounds) for +Inf).
func (h *Histogram) observeLocked(v float64) int {
	h.sum.Add(v)
	h.ring.Put(v)
	i := sort.SearchFloat64s(bucketBounds, v)
	if i < len(h.counts) {
		h.counts[i]++
	}
	return i
}

// snapshot captures the histogram under its lock.
func (h *Histogram) snapshot(name, label string) HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Name:  name,
		Label: label,
		Count: h.sum.N(),
		Sum:   h.sum.Sum(),
		Mean:  h.sum.Mean(),
		Min:   h.sum.Min(),
		Max:   h.sum.Max(),
	}
	if h.counts != nil {
		s.Buckets = make([]int64, len(h.counts))
		var cum int64
		for i, c := range h.counts {
			cum += c
			s.Buckets[i] = cum
		}
	}
	if h.ex != nil {
		s.Exemplars = append([]Exemplar(nil), h.ex...)
	}
	if h.ring.Held() > 0 {
		var ps stats.Samples
		for _, v := range h.ring.Last(0) {
			ps.Add(v)
		}
		s.P50 = ps.Percentile(50)
		s.P95 = ps.Percentile(95)
		s.P99 = ps.Percentile(99)
	}
	return s
}

// vec is a labeled family of instruments of one kind. With is safe for
// concurrent use and returns a stable pointer for the label, so hot paths
// resolve once and then pay only the instrument's own update.
type vec[T any] struct {
	m     sync.Map  // label -> *T
	fresh func() *T // what With makes of a label it has not seen
}

// CounterVec is a labeled family of counters (per-engine, per-context,
// per-priority, per-CC...), GaugeVec one of gauges and HistogramVec one of
// histograms.
type (
	CounterVec   = vec[Counter]
	GaugeVec     = vec[Gauge]
	HistogramVec = vec[Histogram]
)

// With returns the instrument for label, creating it on first use.
func (v *vec[T]) With(label string) *T {
	if x, ok := v.m.Load(label); ok {
		return x.(*T)
	}
	x, _ := v.m.LoadOrStore(label, v.fresh())
	return x.(*T)
}

// each calls f on every series of the family.
func (v *vec[T]) each(f func(label string, x *T)) {
	v.m.Range(func(k, x any) bool {
		f(k.(string), x.(*T))
		return true
	})
}

// retireMatch reports whether a series label belongs to the retired
// prefix: an exact match, or prefix followed by a "/" segment separator
// ("t5" retires "t5" and "t5/batch/ok", never "t51").
func retireMatch(label, prefix string) bool {
	if label == prefix {
		return true
	}
	return len(label) > len(prefix) && label[:len(prefix)] == prefix && label[len(prefix)] == '/'
}

// Retire deletes every series whose label matches prefix (see
// retireMatch), returning how many were removed. Callers holding stale
// instrument pointers keep bumping a detached instrument — harmless, it
// just never appears in a snapshot again.
func (v *vec[T]) Retire(prefix string) int {
	var n int
	v.each(func(label string, _ *T) {
		if retireMatch(label, prefix) {
			v.m.Delete(label)
			n++
		}
	})
	return n
}

// Registry is a named set of instruments. Lookup methods get-or-create;
// callers resolve instruments once (at device construction) and hold the
// returned pointer, so the request path never touches the registry maps.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*CounterVec
	gauges     map[string]*GaugeVec
	histograms map[string]*HistogramVec
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*CounterVec),
		gauges:     make(map[string]*GaugeVec),
		histograms: make(map[string]*HistogramVec),
	}
}

// family returns the family m holds under name, creating it — With making
// new series of it with mk — on first use.
func family[T any](r *Registry, m map[string]*vec[T], name string, mk func() *T) *vec[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = &vec[T]{fresh: mk}
		m[name] = v
	}
	return v
}

// CounterVec returns the labeled counter family name.
func (r *Registry) CounterVec(name string) *CounterVec {
	return family(r, r.counters, name, func() *Counter { return new(Counter) })
}

// Counter returns the unlabeled counter name.
func (r *Registry) Counter(name string) *Counter { return r.CounterVec(name).With("") }

// GaugeVec returns the labeled gauge family name.
func (r *Registry) GaugeVec(name string) *GaugeVec {
	return family(r, r.gauges, name, func() *Gauge { return new(Gauge) })
}

// Gauge returns the unlabeled gauge name.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeVec(name).With("") }

// HistogramVec returns the labeled histogram family name.
func (r *Registry) HistogramVec(name string) *HistogramVec {
	return family(r, r.histograms, name, newHistogram)
}

// Histogram returns the unlabeled histogram name.
func (r *Registry) Histogram(name string) *Histogram { return r.HistogramVec(name).With("") }

// families copies the registry's three maps out under its lock: series
// are then read, or retired, without holding it.
func (r *Registry) families() (map[string]*CounterVec, map[string]*GaugeVec, map[string]*HistogramVec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.counters), maps.Clone(r.gauges), maps.Clone(r.histograms)
}

// RetireLabelPrefix deletes, across every instrument family, each series
// whose label is prefix or begins with prefix+"/". It is the series
// garbage collector behind tenant retirement: when a tenant's views are
// closed and its admission entry swept, retiring "t<id>" drops its
// labeled rows from future snapshots so the exposition does not grow
// without bound under view churn. Returns the number of series removed.
func (r *Registry) RetireLabelPrefix(prefix string) int {
	if prefix == "" {
		return 0
	}
	counters, gauges, histograms := r.families()
	var n int
	for _, v := range counters {
		n += v.Retire(prefix)
	}
	for _, v := range gauges {
		n += v.Retire(prefix)
	}
	for _, v := range histograms {
		n += v.Retire(prefix)
	}
	return n
}

// CounterSnapshot is one counter's value at snapshot time.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's value and high-water mark.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// HistogramSnapshot summarizes one histogram. Count/Sum/Mean/Min/Max
// are exact over all observations; P50/P95/P99 cover the most recent
// histogramWindow observations. Sum lets consumers derive mean rates
// from snapshot deltas without access to the sample ring.
type HistogramSnapshot struct {
	Name  string  `json:"name"`
	Label string  `json:"label,omitempty"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets are cumulative observation counts per BucketBounds entry
	// (Prometheus _bucket semantics: Buckets[i] counts observations
	// <= BucketBounds()[i]; the implicit +Inf bucket is Count). Nil on
	// snapshots assembled without bucket data.
	Buckets []int64 `json:"buckets,omitempty"`
	// Exemplars holds one entry per bucket (len(BucketBounds())+1; the
	// last is the +Inf bucket): the most recent RequestID whose
	// observation crossed that bucket. Req 0 = no exemplar. Nil on
	// histograms never bumped via ObserveExemplar.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time view of every instrument, sorted by name
// then label. Each instrument is read atomically (counters/gauges) or
// under its lock (histograms), so no individual value is torn; the
// snapshot as a whole is not a cross-instrument atomic cut.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered instrument.
func (r *Registry) Snapshot() *Snapshot {
	counters, gauges, histograms := r.families()
	s := &Snapshot{}
	for name, v := range counters {
		v.each(func(label string, c *Counter) {
			s.Counters = append(s.Counters, CounterSnapshot{Name: name, Label: label, Value: c.Value()})
		})
	}
	for name, v := range gauges {
		v.each(func(label string, g *Gauge) {
			s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Label: label, Value: g.Value(), Max: g.Max()})
		})
	}
	for name, v := range histograms {
		v.each(func(label string, h *Histogram) {
			s.Histograms = append(s.Histograms, h.snapshot(name, label))
		})
	}
	s.Sort()
	return s
}

// Sort orders every section by name then label (snapshots assembled from
// several sources call this once at the end).
func (s *Snapshot) Sort() {
	sort.Slice(s.Counters, func(i, j int) bool {
		if s.Counters[i].Name != s.Counters[j].Name {
			return s.Counters[i].Name < s.Counters[j].Name
		}
		return s.Counters[i].Label < s.Counters[j].Label
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		if s.Gauges[i].Name != s.Gauges[j].Name {
			return s.Gauges[i].Name < s.Gauges[j].Name
		}
		return s.Gauges[i].Label < s.Gauges[j].Label
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		if s.Histograms[i].Name != s.Histograms[j].Name {
			return s.Histograms[i].Name < s.Histograms[j].Name
		}
		return s.Histograms[i].Label < s.Histograms[j].Label
	})
}

// Append concatenates o's instruments onto s (no sorting or merging —
// call Sort once every source is in). Callers assembling a snapshot from
// several registries (a node registry plus per-device registries) use
// this to build one view.
func (s *Snapshot) Append(o *Snapshot) {
	if o == nil {
		return
	}
	s.Counters = append(s.Counters, o.Counters...)
	s.Gauges = append(s.Gauges, o.Gauges...)
	s.Histograms = append(s.Histograms, o.Histograms...)
}

// LabeledSnapshot pairs one source's snapshot with the label identifying
// it (a device label in a multi-accelerator node).
type LabeledSnapshot struct {
	Label string
	Snap  *Snapshot
}

// joinLabel prefixes an instrument label with its source label:
// "drawer0/cp1" alone when the instrument was unlabeled, otherwise
// "drawer0/cp1/<label>".
func joinLabel(source, label string) string {
	if label == "" {
		return source
	}
	return source + "/" + label
}

// MergeSnapshots combines per-source snapshots into one view. Every
// instrument appears twice: once per source under its source-prefixed
// label ("<source>" or "<source>/<label>"), and once as an aggregate row
// under the original name+label summed across sources — so a consumer
// that knew the single-device layout reads the same rows with the same
// totals, and per-device detail sits alongside.
//
// Aggregation semantics: counters sum. Gauge values sum; the aggregate
// Max is the sum of per-source maxes, an upper bound on the (unknowable
// after the fact) true combined high-water. Histogram Count/Min/Max
// merge exactly and Mean is count-weighted; the aggregate percentiles
// are count-weighted means of per-source percentiles — an approximation,
// exact only when the sources are identically distributed.
func MergeSnapshots(sources []LabeledSnapshot) *Snapshot {
	out := &Snapshot{}
	type key struct{ name, label string }
	cagg := make(map[key]*CounterSnapshot)
	gagg := make(map[key]*GaugeSnapshot)
	hagg := make(map[key]*HistogramSnapshot)
	var corder, gorder, horder []key
	for _, src := range sources {
		if src.Snap == nil {
			continue
		}
		for _, c := range src.Snap.Counters {
			out.Counters = append(out.Counters, CounterSnapshot{
				Name: c.Name, Label: joinLabel(src.Label, c.Label), Value: c.Value,
			})
			k := key{c.Name, c.Label}
			if a := cagg[k]; a != nil {
				a.Value += c.Value
			} else {
				cagg[k] = &CounterSnapshot{Name: c.Name, Label: c.Label, Value: c.Value}
				corder = append(corder, k)
			}
		}
		for _, g := range src.Snap.Gauges {
			out.Gauges = append(out.Gauges, GaugeSnapshot{
				Name: g.Name, Label: joinLabel(src.Label, g.Label), Value: g.Value, Max: g.Max,
			})
			k := key{g.Name, g.Label}
			if a := gagg[k]; a != nil {
				a.Value += g.Value
				a.Max += g.Max
			} else {
				gagg[k] = &GaugeSnapshot{Name: g.Name, Label: g.Label, Value: g.Value, Max: g.Max}
				gorder = append(gorder, k)
			}
		}
		for _, h := range src.Snap.Histograms {
			hh := h
			hh.Label = joinLabel(src.Label, h.Label)
			out.Histograms = append(out.Histograms, hh)
			k := key{h.Name, h.Label}
			a := hagg[k]
			if a == nil {
				cp := h
				// The aggregate row owns its bucket and exemplar slices:
				// merging in later sources must not mutate the per-source
				// row.
				if h.Buckets != nil {
					cp.Buckets = append([]int64(nil), h.Buckets...)
				}
				if h.Exemplars != nil {
					cp.Exemplars = append([]Exemplar(nil), h.Exemplars...)
				}
				hagg[k] = &cp
				horder = append(horder, k)
				continue
			}
			mergeHistogram(a, h)
		}
	}
	for _, k := range corder {
		out.Counters = append(out.Counters, *cagg[k])
	}
	for _, k := range gorder {
		out.Gauges = append(out.Gauges, *gagg[k])
	}
	for _, k := range horder {
		out.Histograms = append(out.Histograms, *hagg[k])
	}
	out.Sort()
	return out
}

// mergeHistogram folds h into a (see MergeSnapshots for the semantics).
func mergeHistogram(a *HistogramSnapshot, h HistogramSnapshot) {
	if h.Count == 0 {
		return
	}
	if a.Count == 0 {
		label := a.Label
		*a = h
		a.Label = label
		if h.Buckets != nil {
			a.Buckets = append([]int64(nil), h.Buckets...)
		}
		if h.Exemplars != nil {
			a.Exemplars = append([]Exemplar(nil), h.Exemplars...)
		}
		return
	}
	n := a.Count + h.Count
	wa, wh := float64(a.Count)/float64(n), float64(h.Count)/float64(n)
	a.Sum += h.Sum
	a.Mean = a.Mean*wa + h.Mean*wh
	a.P50 = a.P50*wa + h.P50*wh
	a.P95 = a.P95*wa + h.P95*wh
	a.P99 = a.P99*wa + h.P99*wh
	if h.Min < a.Min {
		a.Min = h.Min
	}
	if h.Max > a.Max {
		a.Max = h.Max
	}
	a.Count = n
	// Cumulative bucket rows over the shared fixed ladder sum
	// elementwise.
	for i := 0; i < len(a.Buckets) && i < len(h.Buckets); i++ {
		a.Buckets[i] += h.Buckets[i]
	}
	// RequestIDs are minted by one process-wide monotone counter, so the
	// larger Req is the more recent exemplar: merge slots elementwise by
	// max-Req.
	if h.Exemplars != nil {
		if a.Exemplars == nil {
			a.Exemplars = append([]Exemplar(nil), h.Exemplars...)
		} else {
			for i := 0; i < len(a.Exemplars) && i < len(h.Exemplars); i++ {
				if h.Exemplars[i].Req > a.Exemplars[i].Req {
					a.Exemplars[i] = h.Exemplars[i]
				}
			}
		}
	}
}

// Counter returns the value of the named counter (label "" for the
// unlabeled instrument), or 0 if absent.
func (s *Snapshot) Counter(name, label string) int64 {
	for _, c := range s.Counters {
		if c.Name == name && c.Label == label {
			return c.Value
		}
	}
	return 0
}

// CounterSum returns the sum across every label of the named family.
func (s *Snapshot) CounterSum(name string) int64 {
	var sum int64
	for _, c := range s.Counters {
		if c.Name == name {
			sum += c.Value
		}
	}
	return sum
}

// Format renders the snapshot as an aligned text table.
func (s *Snapshot) Format(w io.Writer) {
	fmt.Fprintf(w, "-- counters --\n")
	for _, c := range s.Counters {
		fmt.Fprintf(w, "%-36s %12d\n", instrumentName(c.Name, c.Label), c.Value)
	}
	fmt.Fprintf(w, "-- gauges --\n")
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "%-36s %12d  (max %d)\n", instrumentName(g.Name, g.Label), g.Value, g.Max)
	}
	fmt.Fprintf(w, "-- histograms --\n")
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "%-36s n=%d mean=%.2f min=%.2f max=%.2f p50=%.2f p95=%.2f p99=%.2f\n",
			instrumentName(h.Name, h.Label), h.Count, h.Mean, h.Min, h.Max, h.P50, h.P95, h.P99)
	}
}

// WriteJSON renders the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func instrumentName(name, label string) string {
	if label == "" {
		return name
	}
	return name + "{" + label + "}"
}
