package nxzip

// tenant.go is the tenant-scoped accounting plane: per-view labeled
// latency series that make the admission gate's multi-tenancy visible.
// Every root-level request bumps two histogram families in the node
// registry —
//
//	nxzip.tenant.latency_us{t<id>/<class>/<outcome>}
//	nxzip.tenant.queue_wait_us{t<id>}
//
// — with an exemplar RequestID per bucket, so a scrape links any
// latency bucket straight to a digest in the flight recorder. The plane
// follows the stack's hot-path discipline: every handle is resolved
// once at View() time into a fixed class × outcome matrix, so the
// per-request cost is two array indexes and two mutexed bucket bumps —
// no map lookups, no allocation.
//
// Label cardinality is bounded twice over: the label space itself is
// finite (ClassCount × OutcomeCount per tenant), and the number of
// distinct tenant labels is capped at tenantLabelCap — views opened
// past the cap account under the shared overflow label instead of
// minting fresh series. Closed views retire: Close records the tenant,
// and after tenantRetireAfter (matching the admission gate's idle
// sweep) the next snapshot deletes its labeled series, so the
// exposition does not grow without bound under view churn.

import (
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/telemetry"
)

// The tenant vocabulary is internal/telemetry's; these are its public
// names.
const (
	// TenantLatencyMetric is the per-tenant request-latency histogram
	// family, labeled "t<id>/<class>/<outcome>" (µs, total wall-clock at
	// the root API).
	TenantLatencyMetric = telemetry.TenantLatencyMetric
	// TenantQueueWaitMetric is the per-tenant receive-FIFO residency
	// histogram family, labeled "t<id>" (µs).
	TenantQueueWaitMetric = telemetry.TenantQueueWaitMetric
	// TenantOverflowLabel is the shared label views past tenantLabelCap
	// account under.
	TenantOverflowLabel = telemetry.TenantOverflowLabel
)

// tenantLabelCap bounds how many distinct tenant labels the plane ever
// mints. Views opened while the cap is full share TenantOverflowLabel —
// a deliberate fold: unbounded label cardinality is how a metrics
// registry becomes the memory leak it was meant to find.
const tenantLabelCap = 128

// tenantRetireAfter is how long after a view's Close its labeled series
// survive before the retirement sweep deletes them — aligned with the
// admission gate's idle-tenant eviction so both planes forget a tenant
// on the same schedule. A variable so tests can shrink it.
var tenantRetireAfter = 10 * time.Second

// TenantLabel renders a tenant ID as its series-label prefix ("t42").
func TenantLabel(id uint64) string { return telemetry.TenantLabel(id) }

// TenantID returns the view's tenant identity — the admission gate's
// quota key and the numeric part of its accounting-plane series labels
// (TenantLabel(id)).
func (a *Accelerator) TenantID() uint64 { return a.nctx.ID() }

// tenantPlane is one view's pre-resolved handle matrix into the tenant
// metric families. Nil when the node disables tenant accounting.
type tenantPlane struct {
	lat   [admission.ClassCount][telemetry.OutcomeCount]*telemetry.Histogram
	qwait *telemetry.Histogram
}

// observe accounts one completed request: total latency into the
// class/outcome cell, queue wait into the tenant row, both stamping req
// as the bucket exemplar. Allocation-free.
func (tp *tenantPlane) observe(cls admission.Class, o telemetry.Outcome, totalUS, queueUS float64, req uint64) {
	if cls < 0 || cls >= admission.ClassCount || o >= telemetry.OutcomeCount {
		return
	}
	tp.lat[cls][o].ObserveExemplar(totalUS, req)
	tp.qwait.ObserveExemplar(queueUS, req)
}

// tenantPlaneFor builds the handle matrix for a fresh view, minting (or
// reusing, past the cap) its tenant label.
func (n *Node) tenantPlaneFor(id uint64) *tenantPlane {
	if n.cfg.DisableTenantAccounting {
		return nil
	}
	n.tmu.Lock()
	if n.tenantLive == nil {
		n.tenantLive = make(map[uint64]string)
	}
	label, ok := n.tenantLive[id]
	if !ok {
		if len(n.tenantLive) >= tenantLabelCap {
			label = TenantOverflowLabel
		} else {
			label = TenantLabel(id)
		}
		n.tenantLive[id] = label
	}
	n.tmu.Unlock()

	reg := n.topo.Registry()
	latVec := reg.HistogramVec(TenantLatencyMetric)
	tp := &tenantPlane{qwait: reg.HistogramVec(TenantQueueWaitMetric).With(label)}
	for cls := admission.Class(0); cls < admission.ClassCount; cls++ {
		for o := telemetry.Outcome(0); o < telemetry.OutcomeCount; o++ {
			tp.lat[cls][o] = latVec.With(telemetry.TenantLatencyLabel(label, cls.String(), o))
		}
	}
	return tp
}

// noteTenantClosed records a view's Close for the retirement sweep.
func (n *Node) noteTenantClosed(id uint64) {
	if n.cfg.DisableTenantAccounting {
		return
	}
	n.tmu.Lock()
	if _, live := n.tenantLive[id]; live {
		if n.tenantClosed == nil {
			n.tenantClosed = make(map[uint64]time.Time)
		}
		n.tenantClosed[id] = time.Now()
	}
	n.tmu.Unlock()
}

// sweepTenantSeries retires the labeled series of tenants whose views
// closed more than tenantRetireAfter ago. Lazy: it runs on the snapshot
// path (every scrape and Metrics call), so a node nobody observes pays
// nothing. Context IDs are monotone — a retired ID never reappears — so
// retirement cannot race a live bump for the same tenant; a handle held
// across retirement keeps bumping a detached histogram harmlessly.
func (n *Node) sweepTenantSeries() {
	n.tmu.Lock()
	var retire []string
	now := time.Now()
	for id, closed := range n.tenantClosed {
		if now.Sub(closed) < tenantRetireAfter {
			continue
		}
		label := n.tenantLive[id]
		delete(n.tenantClosed, id)
		delete(n.tenantLive, id)
		// The overflow label is shared — never retire it; deleting the ID
		// from the live map is enough to free its cap slot.
		if label != "" && label != TenantOverflowLabel {
			retire = append(retire, label)
		}
	}
	n.tmu.Unlock()
	for _, label := range retire {
		n.topo.Registry().RetireLabelPrefix(label)
	}
}
