package nxzip

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/faultinject"
	"nxzip/internal/flightrec"
	"nxzip/internal/nx"
	"nxzip/internal/telemetry"
	"nxzip/internal/topology"
	"nxzip/internal/vas"
)

// NodeConfig describes a multi-accelerator node: the topology shape
// (how many devices, configured how), the dispatch policy every
// submission routes through, and the Huffman table mode views inherit.
type NodeConfig struct {
	// Shape declares the devices. Use P9Node / Z15Node / CustomNode, or
	// build a topology.Shape directly for heterogeneous nodes.
	Shape topology.Shape
	// Dispatch names the routing policy: "round-robin" (default),
	// "least-loaded" (credit/occupancy-aware), or "affinity"
	// (PID/context-sticky).
	Dispatch string
	// TableMode is the Huffman strategy views of this node use.
	TableMode TableMode
	// DisableTenantAccounting turns off the per-tenant labeled latency
	// plane (tenant.go). The default (false) accounts every request under
	// its view's tenant label; experiments measuring the plane's own
	// overhead flip this for an A/B baseline.
	DisableTenantAccounting bool
}

// P9Node returns the node configuration of a POWER9 system with the
// given chip count — one NX GZIP unit per chip.
func P9Node(chips int) NodeConfig {
	return NodeConfig{Shape: topology.P9Node(chips)}
}

// Z15Node returns the node configuration of a z15 system with the given
// CPC-drawer count — four CP chips (one zEDC unit each) per drawer.
// Z15Node(5) is the maximal topology behind the paper's 280 GB/s
// aggregate claim (C6).
func Z15Node(drawers int) NodeConfig {
	return NodeConfig{Shape: topology.Z15Node(drawers)}
}

// CustomNode assembles an arbitrary node from explicit device
// configurations, labeled by index.
func CustomNode(name string, devices ...nx.DeviceConfig) NodeConfig {
	specs := make([]topology.DeviceSpec, len(devices))
	for i, cfg := range devices {
		specs[i] = topology.DeviceSpec{Config: cfg}
	}
	return NodeConfig{Shape: topology.Custom(name, specs...)}
}

// Node is an open device pool. Views opened with View share the pool
// and its dispatcher; each view carries its own VAS send windows (one
// per device), so views are the unit of credit isolation exactly as
// contexts are on one device.
type Node struct {
	cfg  NodeConfig
	topo *topology.Node

	// rec is the node's flight recorder, nil until EnableFlightRecorder.
	// Views reach it through their root back-reference with one atomic
	// load, preserving the zero-cost-when-absent hook discipline.
	rec atomic.Pointer[flightrec.Recorder]

	// view is the lazily-created default accelerator view behind the
	// node-level format API (CompressFormat/DecompressFormat/Transcode).
	view atomic.Pointer[Accelerator]

	// adm is the admission controller, nil until EnableAdmission. Same
	// hook discipline as rec: one atomic load on the hot path. admMu
	// serializes EnableAdmission so concurrent first calls construct
	// exactly one controller (its instruments live in the shared
	// topology registry).
	admMu sync.Mutex
	adm   atomic.Pointer[admission.Controller]

	// tmu guards the tenant plane's label bookkeeping (tenant.go):
	// which tenant IDs own live labeled series, and which closed views
	// await series retirement. Both maps are lazily created.
	tmu          sync.Mutex
	tenantLive   map[uint64]string    // tenant id -> its series label
	tenantClosed map[uint64]time.Time // closed views pending retirement
}

// defaultView returns the node's shared accelerator view, creating it
// on first use. Format-routed node calls share this one view (and its
// PID-1 address space); callers needing isolated address spaces keep
// opening their own with View.
func (n *Node) defaultView() *Accelerator {
	if v := n.view.Load(); v != nil {
		return v
	}
	v := n.View()
	if !n.view.CompareAndSwap(nil, v) {
		v.Close()
		return n.view.Load()
	}
	return v
}

// OpenNode instantiates every device of the shape — per-device VAS
// switchboard, NMMU, engines and telemetry registry — plus the node's
// dispatcher. It fails only on an unknown Dispatch policy name.
func OpenNode(cfg NodeConfig) (*Node, error) {
	policy, err := topology.ParsePolicy(cfg.Dispatch)
	if err != nil {
		return nil, fmt.Errorf("nxzip: %w", err)
	}
	return &Node{cfg: cfg, topo: topology.New(cfg.Shape, policy)}, nil
}

// View opens an Accelerator over the pool: the entire single-device API
// (CompressGzip, Writer, ParallelWriter, StreamWriter, …) works
// unchanged, with every request routed to a device by the node's
// dispatch policy. Close the view to release its windows; the node and
// its devices stay usable for other views.
func (n *Node) View() *Accelerator {
	nctx := n.topo.OpenContext(1)
	return &Accelerator{
		cfg:    Config{Device: n.cfg.Shape.Devices[0].Config, TableMode: n.cfg.TableMode},
		root:   n,
		node:   n.topo,
		nctx:   nctx,
		dev:    n.topo.Device(0),
		ctx:    nctx.Primary(),
		met:    newAccMetrics(n.topo.Registry()),
		tplane: n.tenantPlaneFor(nctx.ID()),
	}
}

// Devices returns the device count.
func (n *Node) Devices() int { return n.topo.Size() }

// Device returns device i — per-device experiments reach the MMU,
// switchboard and engine counters through it.
func (n *Node) Device(i int) *nx.Device { return n.topo.Device(i) }

// Label returns device i's telemetry label ("chip0", "drawer1/cp2").
func (n *Node) Label(i int) string { return n.topo.Label(i) }

// Dispatched reports how many requests the dispatcher routed to device
// i over the node's lifetime.
func (n *Node) Dispatched(i int) int64 { return n.topo.Dispatched(i) }

// Metrics returns the merged node snapshot: per-device rows under
// device-prefixed labels plus aggregate rows under the original names
// (see topology.Node.MetricsSnapshot). The snapshot path doubles as the
// tenant-series garbage collector: closed views' labeled series retire
// here once their grace period lapses.
func (n *Node) Metrics() *telemetry.Snapshot {
	n.sweepTenantSeries()
	return n.topo.MetricsSnapshot()
}

// VASStats aggregates every device switchboard's counters.
func (n *Node) VASStats() vas.Stats { return n.topo.VASStats() }

// StartTrace enables request-lifecycle tracing node-wide: one shared
// tracer (one span-id sequence, one sink) across every device. It and
// the flight recorder do not displace each other: with both on, the sink
// receives every span and the recorder keeps its requests' spans too.
func (n *Node) StartTrace(sink telemetry.Sink) { n.topo.StartTrace(sink) }

// StopTrace disables tracing on every device and closes the sink
// exactly once.
func (n *Node) StopTrace() error { return n.topo.StopTrace() }

// InstallInjectors builds one deterministic fault injector per device
// (seeds derived from seed, so chaos runs replay), installs them across
// every device layer, and returns them so a chaos harness can flip
// profiles or offline individual devices mid-run. This is the node-level
// entry point behind the -chaos flag of nxbench and nxzip.
func (n *Node) InstallInjectors(seed int64, p faultinject.Profile) []*faultinject.Injector {
	return n.topo.InstallInjectors(seed, p)
}

// Quarantined reports whether device i is currently quarantined by the
// health scoreboard.
func (n *Node) Quarantined(i int) bool { return n.topo.Quarantined(i) }

// HealthyDevices returns the number of non-quarantined devices.
func (n *Node) HealthyDevices() int { return n.topo.HealthyCount() }
