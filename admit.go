package nxzip

// admit.go wires the overload-protection subsystem (internal/admission)
// and graceful drain into the root API. Both follow the stack's
// zero-cost-when-absent hook discipline: with EnableAdmission never
// called, every request path pays one atomic load and a nil check; with
// it enabled, each root-level operation presents at the gate before any
// device cycles are spent, carrying its view's priority class and
// tenant identity. Drain is always available — it rides the topology
// health scoreboard's admit filter, so a draining device stops
// receiving work the instant the drain starts.

import (
	"fmt"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/nx"
	"nxzip/internal/obs"
	"nxzip/internal/vas"
)

// inflightPerDevice sizes the default admission ceiling: a quarter of
// each device's receive-FIFO depth. The FIFO itself (depth 128) is the
// hardware's last-resort buffer; the gate aims to keep steady-state
// queueing well below it so paste-reject backoff storms never start.
const inflightFIFOFraction = 4

// fifoDepthOf returns a device config's receive-FIFO depth (the VAS
// default when unset).
func fifoDepthOf(cfg nx.DeviceConfig) int {
	if cfg.VAS.FIFODepth > 0 {
		return cfg.VAS.FIFODepth
	}
	return vas.DefaultConfig().FIFODepth
}

// admissionProbe samples the dispatch tier for the gate's pressure
// signal: total receive-FIFO occupancy across every device, against the
// FIFO capacity of the devices currently accepting work — quarantining
// or draining half the pool doubles the pressure of the same queue.
func (n *Node) admissionProbe() admission.Load {
	var load admission.Load
	for i := 0; i < n.topo.Size(); i++ {
		load.Queued += float64(n.topo.Device(i).Switchboard().Occupancy())
		if n.topo.Accepting(i) {
			load.Capacity += float64(fifoDepthOf(n.cfg.Shape.Devices[i].Config))
		}
	}
	return load
}

// EnableAdmission turns on overload protection for the node: every
// root-level request (one-shot, format-routed, batch, parallel workers)
// presents at the gate before dispatch. A zero cfg takes the shipped
// policy with MaxInflight derived from topology capacity (devices ×
// FIFO depth / 4). Shed decisions publish obs.EventShed (events are
// enabled implicitly) and digest as OutcomeShed when the flight
// recorder is attached. Idempotent — repeated (and concurrent) calls
// return the first controller; exactly one is ever constructed per
// node, so its instruments own the shared registry entries they share.
func (n *Node) EnableAdmission(cfg admission.Config) *admission.Controller {
	n.admMu.Lock()
	defer n.admMu.Unlock()
	if ctrl := n.adm.Load(); ctrl != nil {
		return ctrl
	}
	if cfg.MaxInflight <= 0 {
		for i := 0; i < n.topo.Size(); i++ {
			cfg.MaxInflight += fifoDepthOf(n.cfg.Shape.Devices[i].Config) / inflightFIFOFraction
		}
	}
	bus := n.EnableEvents()
	ctrl := admission.NewController(cfg, n.admissionProbe, n.topo.Registry())
	ctrl.SetShedHook(func(s admission.ShedInfo) {
		bus.Publish(obs.Event{Type: obs.EventShed, Tenant: s.Tenant,
			Detail: fmt.Sprintf("%s request shed (%s), retry after %v", s.Class, s.Reason, s.RetryAfter)})
	})
	n.adm.Store(ctrl)
	return ctrl
}

// Admission returns the node's admission controller, or nil before
// EnableAdmission.
func (n *Node) Admission() *admission.Controller { return n.adm.Load() }

// AdmissionStatus converts the gate's snapshot into the obs document
// shape (nil before EnableAdmission — /snapshot omits the section).
func (n *Node) AdmissionStatus() *obs.AdmissionStatus {
	ctrl := n.adm.Load()
	if ctrl == nil {
		return nil
	}
	s := ctrl.StatusNow()
	doc := &obs.AdmissionStatus{
		Level:       s.Level,
		Pressure:    s.Pressure,
		Inflight:    s.Inflight,
		MaxInflight: s.MaxInflight,
		Queued:      s.Queued,
		Evicted:     s.Evicted,
	}
	for cl := admission.Class(0); cl < admission.ClassCount; cl++ {
		doc.Classes = append(doc.Classes, obs.AdmissionClassStatus{
			Class:    cl.String(),
			Admitted: s.Admitted[cl],
			Shed:     s.Shed[cl],
			Degraded: s.Degraded[cl],
		})
	}
	return doc
}

// DefaultDrainTimeout bounds how long Drain waits for in-flight work.
const DefaultDrainTimeout = 10 * time.Second

// Drain gracefully removes device i from service: admission to it stops
// immediately (new picks route around it; pinned StreamWriters migrate
// their history to another device on their next segment), then Drain
// blocks until every in-flight CRB has completed — zero requests are
// dropped. The device stays offline for new work until Undrain; its
// in-memory state (MMU mappings, registries) is untouched, so undraining
// restores it instantly. Returns ErrDrainTimeout (via the topology
// layer) when work is still in flight after DefaultDrainTimeout — the
// drain stays active so the caller may wait again or Undrain.
func (n *Node) Drain(i int) error { return n.DrainTimeout(i, DefaultDrainTimeout) }

// DrainTimeout is Drain with an explicit quiesce bound.
func (n *Node) DrainTimeout(i int, timeout time.Duration) error {
	if i < 0 || i >= n.topo.Size() {
		return fmt.Errorf("nxzip: drain: no device %d (node has %d)", i, n.topo.Size())
	}
	n.topo.StartDrain(i)
	return n.topo.Quiesce(i, timeout)
}

// Undrain returns a drained device to service.
func (n *Node) Undrain(i int) {
	if i < 0 || i >= n.topo.Size() {
		return
	}
	n.topo.Undrain(i)
}

// Draining reports whether device i is currently draining (or drained
// and awaiting Undrain).
func (n *Node) Draining(i int) bool { return n.topo.Draining(i) }

// SetPriority assigns the admission class this view's requests carry
// (default Interactive). Views are the unit of priority exactly as they
// are the unit of credit isolation: open one view per class of traffic.
// Safe to call at any time; requests in flight keep their class.
func (a *Accelerator) SetPriority(class admission.Class) {
	a.class.Store(int32(class))
	// Propagate the class name to the device contexts so spans carry it.
	a.nctx.SetPriorityName(class.String())
}

// Priority returns the view's admission class.
func (a *Accelerator) Priority() admission.Class {
	return admission.Class(a.class.Load())
}

// SetQuotaWeight declares this view's tenant weight at the admission
// gate (default 1). Under brownout, capacity divides by weight share;
// at normal load weights are ignored (the gate is work-conserving).
// No-op before EnableAdmission.
func (a *Accelerator) SetQuotaWeight(weight int) {
	if a.root == nil {
		return
	}
	if ctrl := a.root.adm.Load(); ctrl != nil {
		ctrl.RegisterTenant(a.nctx.ID(), weight)
	}
}

// admissionCtrl is the hot-path accessor: one atomic load, nil when
// admission is not enabled.
func (a *Accelerator) admissionCtrl() *admission.Controller {
	if a.root == nil {
		return nil
	}
	return a.root.adm.Load()
}
