package nxzip

// observe.go is the node-level entry point to the observability layer:
// EnableEvents attaches one event bus across every layer of the stack
// (topology scoreboard, devices, switchboards, the failover path), and
// ServeObs starts the HTTP exposition server (/metrics, /snapshot,
// /healthz, /events) over the node's merged snapshot. With neither
// called, nothing is attached and the request path keeps its zero-cost
// hooks.

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/flightrec"
	"nxzip/internal/obs"
	"nxzip/internal/telemetry"
)

// EnableEvents attaches an event bus to the node: quarantine and
// readmission transitions, probe admissions, failover re-dispatches,
// software fallbacks, credit leaks and engine hangs publish to it as
// typed records. Idempotent — repeated calls return the same bus.
func (n *Node) EnableEvents() *telemetry.Bus {
	if bus := n.topo.Bus(); bus != nil {
		return bus
	}
	bus := telemetry.NewBus()
	n.topo.SetEventBus(bus)
	return bus
}

// Bus returns the node's event bus, or nil before EnableEvents.
func (n *Node) Bus() *telemetry.Bus { return n.topo.Bus() }

// EnableEvents attaches an event bus to the accelerator's underlying
// node (a view shares the node's bus). Idempotent.
func (a *Accelerator) EnableEvents() *telemetry.Bus { return a.root.EnableEvents() }

// DeviceStatuses builds the per-device operational table the /snapshot
// endpoint and nxtop show: health, dispatch and load, FIFO occupancy,
// send-window credits, request/byte totals, and cycle counters for
// utilization.
func (n *Node) DeviceStatuses() []telemetry.DeviceStatus {
	nodeSnap := n.topo.Registry().Snapshot()
	out := make([]telemetry.DeviceStatus, n.topo.Size())
	for i := range out {
		d := n.topo.Device(i)
		label := n.topo.Label(i)
		reg := d.Registry()
		busy, total := d.BusyCycles(), d.UptimeCycles()
		ds := telemetry.DeviceStatus{
			Label:       label,
			Healthy:     !n.topo.Quarantined(i),
			Draining:    n.topo.Draining(i),
			Dispatched:  n.topo.Dispatched(i),
			Load:        n.topo.Load(i),
			Occupancy:   d.Switchboard().Occupancy(),
			Credits:     d.Switchboard().CreditsAvailable(),
			Requests:    reg.Counter("nx.requests").Value(),
			InBytes:     reg.Counter("nx.in_bytes").Value(),
			OutBytes:    reg.Counter("nx.out_bytes").Value(),
			BusyCycles:  busy,
			TotalCycles: total,
			Quarantines: nodeSnap.Counter("topology.quarantines", label),
		}
		if total > 0 {
			ds.Util = float64(busy) / float64(total)
		}
		out[i] = ds
	}
	return out
}

// ObsConfig tunes ServeObsConfig beyond the listen address. The zero
// value matches ServeObs: 1-second sampling, the shipped SRE-workbook
// burn-rate policy.
type ObsConfig struct {
	// Burn parameterises the multi-window burn-rate evaluator (zero →
	// obs.DefaultBurnConfig; any other is used as given). Tests and
	// experiments compress the windows to seconds.
	Burn obs.BurnConfig
	// SampleInterval is the window sampler period (<=0 → 1s).
	SampleInterval time.Duration
}

// ServeObs starts the observability HTTP server on addr (":8090", or
// "127.0.0.1:0" for an ephemeral port — read the bound address from
// Server.Addr). Events are enabled implicitly so /events and the
// /snapshot event tail are live. With EnableFlightRecorder active
// (before or after this call) the server additionally exposes the
// flight section of /snapshot and /debug/postmortems, and a
// healthy→unhealthy SLO transition triggers a postmortem bundle. The
// caller owns the returned server and closes it when done.
func (n *Node) ServeObs(addr string) (*obs.Server, error) {
	return n.ServeObsConfig(addr, ObsConfig{})
}

// ServeObsConfig is ServeObs with sampler and burn-rate tuning.
func (n *Node) ServeObsConfig(addr string, cfg ObsConfig) (*obs.Server, error) {
	bus := n.EnableEvents()
	srv := obs.NewServer(obs.Options{
		Addr:           addr,
		Name:           n.cfg.Shape.Name,
		Snapshot:       n.Metrics,
		Devices:        n.DeviceStatuses,
		SampleInterval: cfg.SampleInterval,
		Burn:           cfg.Burn,
		Tenants:        func() []admission.TenantStatus { return n.adm.Load().TenantsNow() },
		Health:         func() (healthy, total int) { return n.HealthyDevices(), n.Devices() },
		Bus:            bus,
		Flight: func() *flightrec.Status {
			if rec := n.rec.Load(); rec != nil {
				return rec.Status()
			}
			return nil
		},
		Admission: n.AdmissionStatus,
		Postmortems: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := n.rec.Load()
			if rec == nil {
				http.Error(w, "flight recorder not enabled", http.StatusNotFound)
				return
			}
			rec.Handler().ServeHTTP(w, r)
		}),
		OnTransition: func(healthy bool, rep obs.HealthReport) {
			rec := n.rec.Load()
			if healthy || rec == nil {
				return
			}
			var failing []string
			for _, r := range rep.Rules {
				if !r.OK {
					failing = append(failing, r.Name)
				}
			}
			rec.TriggerPostmortem(fmt.Sprintf("slo unhealthy: %s", strings.Join(failing, ", ")))
		},
	})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}
