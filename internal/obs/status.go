package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/stats"
	"nxzip/internal/telemetry"
)

// status.go defines the digested /snapshot document and the terminal
// rendering cmd/nxtop draws from it. Keeping the renderer here (instead
// of in the command) lets the package tests cover it and keeps nxtop a
// thin poll loop.

// DeviceStatus is one device's operational state at snapshot time.
// Cycle counters are cumulative; consumers diff consecutive polls for
// instantaneous utilization (Util carries the lifetime ratio as a
// fallback for the first frame).
type DeviceStatus struct {
	Label   string `json:"label"`
	Healthy bool   `json:"healthy"`
	// Draining marks a device under graceful drain: admission stopped by
	// operator decision (not the breaker), waiting for in-flight work.
	Draining    bool    `json:"draining,omitempty"`
	Dispatched  int64   `json:"dispatched"`
	Load        int64   `json:"load"`      // in-flight picks + FIFO occupancy
	Occupancy   int     `json:"occupancy"` // receive-FIFO depth now
	Credits     int     `json:"credits"`   // send-window credits available across open windows
	Requests    int64   `json:"requests"`
	InBytes     int64   `json:"in_bytes"`
	OutBytes    int64   `json:"out_bytes"`
	BusyCycles  int64   `json:"busy_cycles"`
	TotalCycles int64   `json:"total_cycles"` // modelled cycles since device creation
	Quarantines int64   `json:"quarantines"`
	Util        float64 `json:"util"` // lifetime busy/total
}

// Totals are the node-wide aggregates nxtop's header line shows.
type Totals struct {
	Requests     int64 `json:"requests"`
	InBytes      int64 `json:"in_bytes"`
	OutBytes     int64 `json:"out_bytes"`
	Fallbacks    int64 `json:"fallbacks"`
	Redispatches int64 `json:"redispatches"`
	Quarantines  int64 `json:"quarantines"`
	Readmissions int64 `json:"readmissions"`
	// Shed counts requests refused by the admission gate (all classes);
	// Drains counts graceful-drain starts.
	Shed   int64 `json:"shed"`
	Drains int64 `json:"drains"`
}

// AdmissionClassStatus is one priority class's admission counters.
type AdmissionClassStatus struct {
	Class    string `json:"class"`
	Admitted int64  `json:"admitted"`
	Shed     int64  `json:"shed"`
	Degraded int64  `json:"degraded"` // routed to software by the brownout ladder
}

// AdmissionStatus digests the admission gate for /snapshot and nxtop's
// overload panel. Produced by the root package from the gate's status
// and kept a type of its own, because /snapshot's shape is pinned.
type AdmissionStatus struct {
	// Level is the brownout ladder rung: "normal", "shed-background",
	// "shed-batch", "saturated".
	Level string `json:"level"`
	// Pressure is the gate's smoothed occupancy signal in [0,~2].
	Pressure    float64                `json:"pressure"`
	Inflight    int                    `json:"inflight"`
	MaxInflight int                    `json:"max_inflight"`
	Queued      int                    `json:"queued"`
	Evicted     int64                  `json:"evicted"` // CoDel + timeout queue evictions
	Classes     []AdmissionClassStatus `json:"classes,omitempty"`
}

// TenantDoc is one tenant's row in the /tenants document and nxtop's
// tenant panel: the accounting plane's windowed rates joined with the
// admission gate's quota standing and the burn-rate verdict.
type TenantDoc struct {
	// Tenant is the series label ("t5", or the shared overflow label).
	Tenant string `json:"tenant"`
	// ID is the numeric view identity (0 for the overflow label).
	ID        uint64  `json:"id,omitempty"`
	ReqPerSec float64 `json:"req_per_sec"`
	Requests  int64   `json:"requests"`
	Shed      int64   `json:"shed"`
	ShedRatio float64 `json:"shed_ratio"`
	QueueP50  float64 `json:"queue_p50_us"`
	QueueP99  float64 `json:"queue_p99_us"`
	// Quota standing (zero before EnableAdmission or for tenants the
	// gate has evicted as idle).
	Weight   int     `json:"weight,omitempty"`
	Inflight int     `json:"inflight,omitempty"`
	Share    float64 `json:"share,omitempty"`
	// Burning lists the SLOs of firing burn alerts naming this tenant as
	// top offender.
	Burning []BurnSLO `json:"burning,omitempty"`
}

// TenantsDoc is the /tenants JSON document.
type TenantsDoc struct {
	Name string    `json:"name"`
	Time time.Time `json:"time"`
	// Window is the sampling window the rates cover.
	Window  Window      `json:"window"`
	Tenants []TenantDoc `json:"tenants"`
	// Burn is the latest multi-window burn-rate evaluation (all four
	// SLO/speed pairs, firing or not).
	Burn []BurnAlert `json:"burn,omitempty"`
}

// BuildTenants joins one window's per-tenant breakdown with the
// admission gate's quota table and the current burn alerts into the
// /tenants rows. Tenants known only to the gate (registered but idle
// this window) still get a row, so quota standing is never hidden by a
// quiet interval.
func BuildTenants(w Window, quotas []admission.TenantStatus, burn []BurnAlert) []TenantDoc {
	byID := make(map[uint64]*admission.TenantStatus, len(quotas))
	for i := range quotas {
		byID[quotas[i].ID] = &quotas[i]
	}
	seen := make(map[uint64]bool)
	out := make([]TenantDoc, 0, len(w.Tenants)+len(quotas))
	for _, tw := range w.Tenants {
		d := TenantDoc{
			Tenant: tw.Tenant, ReqPerSec: tw.ReqPerSec,
			Requests: tw.Requests, Shed: tw.Shed, ShedRatio: tw.ShedRatio,
			QueueP50: tw.QueueP50, QueueP99: tw.QueueP99,
		}
		if id, ok := telemetry.ParseTenantLabel(tw.Tenant); ok {
			d.ID = id
			seen[id] = true
			if q := byID[id]; q != nil {
				d.Weight, d.Inflight, d.Share = q.Weight, q.Inflight, q.Share
			}
		}
		out = append(out, d)
	}
	for i := range quotas {
		q := &quotas[i]
		if seen[q.ID] {
			continue
		}
		out = append(out, TenantDoc{
			Tenant: telemetry.TenantLabel(q.ID), ID: q.ID,
			Weight: q.Weight, Inflight: q.Inflight, Share: q.Share,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	for _, a := range burn {
		if !a.Firing || a.Tenant == "" {
			continue
		}
		for i := range out {
			if out[i].Tenant == a.Tenant && !slices.Contains(out[i].Burning, a.SLO) {
				out[i].Burning = append(out[i].Burning, a.SLO)
			}
		}
	}
	return out
}

// FlightStatus digests the flight recorder for /snapshot and nxtop:
// how much history is in memory, the rolling tail thresholds, the
// postmortem trail, and the slowest recent requests. Produced by
// internal/flightrec (obs only defines the shape, keeping the
// dependency pointing one way).
type FlightStatus struct {
	// Requests is the total number of requests digested.
	Requests uint64 `json:"requests"`
	// Retained is how many requests currently hold full spans.
	Retained int `json:"retained"`
	// P99TotalUS / P99QueueUS are the recorder's rolling p99s (µs).
	P99TotalUS  float64 `json:"p99_total_us"`
	P99QueueUS  float64 `json:"p99_queue_us"`
	Postmortems int64   `json:"postmortems"`
	// LastTrigger/LastReason describe the most recent postmortem.
	LastTrigger time.Time `json:"last_trigger,omitempty"`
	LastReason  string    `json:"last_reason,omitempty"`
	// Slowest is the "slowest recent requests" feed, worst first.
	Slowest []telemetry.Digest `json:"slowest,omitempty"`
}

// StatusDoc is the /snapshot JSON document: identity, SLO verdict,
// per-device state, node totals, the sampler's recent windows, the
// recent event tail, and the full merged metrics snapshot.
type StatusDoc struct {
	Name          string              `json:"name"`
	Time          time.Time           `json:"time"`
	Healthy       bool                `json:"healthy"`
	Health        HealthReport        `json:"health"`
	Devices       []DeviceStatus      `json:"devices"`
	Totals        Totals              `json:"totals"`
	Admission     *AdmissionStatus    `json:"admission,omitempty"`
	Flight        *FlightStatus       `json:"flight,omitempty"`
	Tenants       []TenantDoc         `json:"tenants,omitempty"`
	Burn          []BurnAlert         `json:"burn,omitempty"`
	Windows       []Window            `json:"windows,omitempty"`
	Events        []Event             `json:"events,omitempty"`
	EventsDropped int64               `json:"events_dropped"`
	Metrics       *telemetry.Snapshot `json:"metrics,omitempty"`
}

// TotalsFromSnapshot digests the node-wide counters a header line needs.
func TotalsFromSnapshot(snap *telemetry.Snapshot) Totals {
	if snap == nil {
		return Totals{}
	}
	return Totals{
		Requests:     snap.Counter("nx.requests", ""),
		InBytes:      snap.Counter("nx.in_bytes", ""),
		OutBytes:     snap.Counter("nx.out_bytes", ""),
		Fallbacks:    snap.Counter("nxzip.fallbacks", ""),
		Redispatches: snap.Counter("nxzip.redispatches", ""),
		Quarantines:  snap.CounterSum("topology.quarantines"),
		Readmissions: snap.CounterSum("topology.readmissions"),
		Shed:         snap.CounterSum("admission.shed"),
		Drains:       snap.CounterSum("topology.drains"),
	}
}

// utilOf returns busy/total from cycle deltas between prev and cur
// (lifetime ratio when prev is absent or stale).
func utilOf(prev *DeviceStatus, cur DeviceStatus) float64 {
	if prev != nil && cur.TotalCycles > prev.TotalCycles && cur.BusyCycles >= prev.BusyCycles {
		return float64(cur.BusyCycles-prev.BusyCycles) / float64(cur.TotalCycles-prev.TotalCycles)
	}
	return cur.Util
}

// RenderText draws one dashboard frame of cur onto w. prev, when
// non-nil, is the previous poll of the same node and sharpens
// utilization from a lifetime average to the inter-poll delta.
func RenderText(w io.Writer, prev, cur *StatusDoc) {
	state := "HEALTHY"
	if !cur.Healthy {
		state = "UNHEALTHY"
	}
	healthyDevs := 0
	for _, d := range cur.Devices {
		if d.Healthy {
			healthyDevs++
		}
	}
	fmt.Fprintf(w, "nxtop — %s — %s — %s (%d/%d devices healthy)\n",
		cur.Name, cur.Time.Format("15:04:05"), state, healthyDevs, len(cur.Devices))
	for _, r := range cur.Health.Rules {
		if !r.OK {
			fmt.Fprintf(w, "  SLO FAIL %-18s %s (%s)\n", r.Name, r.Expr, r.Detail)
		}
	}

	t := cur.Totals
	fmt.Fprintf(w, "totals: %d req, in %s, out %s, %d fallback, %d redispatch, %d quarantine / %d readmit, %d shed, %d drains\n",
		t.Requests, stats.Bytes(t.InBytes), stats.Bytes(t.OutBytes),
		t.Fallbacks, t.Redispatches, t.Quarantines, t.Readmissions, t.Shed, t.Drains)

	// Overload panel: the admission gate's ladder rung and per-class
	// counters (only when admission is enabled on the node).
	if adm := cur.Admission; adm != nil {
		fmt.Fprintf(w, "admission: %s  pressure %.2f  inflight %d/%d  queued %d  evicted %d\n",
			adm.Level, adm.Pressure, adm.Inflight, adm.MaxInflight, adm.Queued, adm.Evicted)
		for _, c := range adm.Classes {
			if c.Admitted == 0 && c.Shed == 0 && c.Degraded == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-12s admitted %-10d shed %-10d degraded %d\n",
				c.Class, c.Admitted, c.Shed, c.Degraded)
		}
	}
	if n := len(cur.Windows); n > 0 {
		lw := cur.Windows[n-1]
		fmt.Fprintf(w, "window: %s  %.0f req/s  queue p50/p95/p99 %s/%s/%s µs\n",
			stats.Rate(lw.GBs*1e9), lw.ReqPerSec,
			fmt.Sprintf("%.0f", lw.QueueP50), fmt.Sprintf("%.0f", lw.QueueP95), fmt.Sprintf("%.0f", lw.QueueP99))
	}

	// Burn-rate panel: any firing multi-window alert, top offender named.
	for _, a := range cur.Burn {
		if a.Firing {
			fmt.Fprintf(w, "BURN %s\n", a.Detail())
		}
	}

	// Tenant panel: the accounting plane's per-tenant windowed rates
	// joined with quota standing (only when tenant series exist).
	if len(cur.Tenants) > 0 {
		fmt.Fprintf(w, "\n%-8s %8s %8s %6s %7s %10s %-10s\n",
			"tenant", "req/s", "shed%", "share", "weight", "p99-queue", "burn")
		for _, td := range cur.Tenants {
			burn := "-"
			if len(td.Burning) > 0 {
				burn = ""
				for i, s := range td.Burning {
					if i > 0 {
						burn += ","
					}
					burn += string(s)
				}
			}
			fmt.Fprintf(w, "%-8s %8.0f %8.1f %6.2f %7d %8.0fµs %-10s\n",
				td.Tenant, td.ReqPerSec, 100*td.ShedRatio, td.Share, td.Weight, td.QueueP99, burn)
		}
	}

	var prevDevs map[string]*DeviceStatus
	if prev != nil {
		prevDevs = make(map[string]*DeviceStatus, len(prev.Devices))
		for i := range prev.Devices {
			prevDevs[prev.Devices[i].Label] = &prev.Devices[i]
		}
	}
	fmt.Fprintf(w, "\n%-14s %-5s %6s %6s %7s %9s %10s %10s %5s\n",
		"device", "state", "util%", "fifo", "credits", "load", "dispatched", "requests", "quar")
	for _, d := range cur.Devices {
		st := "ok"
		switch {
		case d.Draining:
			st = "DRAIN"
		case !d.Healthy:
			st = "QUAR"
		}
		fmt.Fprintf(w, "%-14s %-5s %6.1f %6d %7d %9d %10d %10d %5d\n",
			d.Label, st, 100*utilOf(prevDevs[d.Label], d),
			d.Occupancy, d.Credits, d.Load, d.Dispatched, d.Requests, d.Quarantines)
	}

	// Flight recorder: postmortem trail plus the slowest recent requests.
	if f := cur.Flight; f != nil {
		fmt.Fprintf(w, "\nflight: %d req digested, %d retained, p99 total/queue %.0f/%.0fµs, %d postmortems",
			f.Requests, f.Retained, f.P99TotalUS, f.P99QueueUS, f.Postmortems)
		if f.Postmortems > 0 {
			fmt.Fprintf(w, " (last %s: %s)", f.LastTrigger.Format("15:04:05"), f.LastReason)
		}
		fmt.Fprintln(w)
		if len(f.Slowest) > 0 {
			fmt.Fprintf(w, "%-8s %-16s %-14s %-7s %-11s %10s %10s %8s %4s %-8s\n",
				"req", "op", "device", "tenant", "prio", "total-µs", "queue-µs", "in", "att", "outcome")
			for _, d := range f.Slowest {
				prio := d.Priority
				if prio == "" {
					prio = "-"
				}
				fmt.Fprintf(w, "%-8d %-16s %-14s %-7s %-11s %10.0f %10.0f %8s %4d %-8s\n",
					d.Req, d.Op, d.Device, telemetry.TenantColumn(d.Tenant), prio, d.TotalUS, d.QueueUS,
					stats.Bytes(int64(d.InBytes)), d.Attempts, d.Outcome.String())
			}
		}
	}

	// Recent windows, newest last — a glance at how rates are trending.
	if n := len(cur.Windows); n > 1 {
		fmt.Fprintf(w, "\n%-10s %10s %10s %12s %9s\n", "window", "req/s", "rate", "p99-queue", "fallback")
		start := n - 5
		if start < 0 {
			start = 0
		}
		for _, lw := range cur.Windows[start:] {
			fmt.Fprintf(w, "%-10s %10.0f %10s %10.0fµs %9d\n",
				lw.End.Format("15:04:05"), lw.ReqPerSec, stats.Rate(lw.GBs*1e9), lw.QueueP99, lw.Fallbacks)
		}
	}

	if len(cur.Events) > 0 {
		fmt.Fprintf(w, "\nevents (last %d, %d dropped):\n", len(cur.Events), cur.EventsDropped)
		start := len(cur.Events) - 8
		if start < 0 {
			start = 0
		}
		for _, e := range cur.Events[start:] {
			if e.Req != 0 {
				fmt.Fprintf(w, "  %s  %-11s %-14s req=%d %s\n",
					e.Time.Format("15:04:05.000"), e.Type, e.Device, e.Req, e.Detail)
			} else {
				fmt.Fprintf(w, "  %s  %-11s %-14s %s\n",
					e.Time.Format("15:04:05.000"), e.Type, e.Device, e.Detail)
			}
		}
	}
}
