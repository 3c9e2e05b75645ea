// Package topology models multi-accelerator nodes: the paper's headline
// system numbers (claim C5, z15 doubling the per-unit POWER9 rate, and
// claim C6, a maximally configured z15 reaching 280 GB/s aggregate) are
// about *many* accelerators per system — one NX unit per POWER9 chip,
// one zEDC unit per z15 CP chip, four CP chips per drawer, up to five
// drawers. This package turns the single-device model into a node: a
// declarative Shape describes how many devices a node carries and how
// they are configured, Node instantiates one nx.Device per entry (each
// with its own VAS switchboard, NMMU, engines and telemetry registry),
// and a pluggable dispatch Policy routes every submission to a device —
// round-robin, credit/occupancy-aware least-loaded, or PID/context
// affinity.
//
// Cross-device observability stays coherent: Node.MetricsSnapshot merges
// the per-device registries into one snapshot with device-labeled rows
// plus aggregate rows under the original names, so single-device
// consumers read unchanged totals; Node.StartTrace installs one shared
// tracer (one span-id sequence, one sink) across every device.
package topology

import (
	"fmt"

	"sync"
	"sync/atomic"

	"nxzip/internal/nmmu"
	"nxzip/internal/nx"
	"nxzip/internal/telemetry"
	"nxzip/internal/vas"
)

// DeviceSpec describes one accelerator instance within a node. The
// label names the device in merged telemetry ("chip0", "drawer1/cp2").
type DeviceSpec struct {
	Label  string
	Config nx.DeviceConfig
}

// Shape is a declarative node topology: a name plus the devices the node
// carries. Build one with P9Node / Z15Node / Single / Custom, or
// assemble the struct directly for arbitrary heterogeneous nodes.
type Shape struct {
	Name    string
	Devices []DeviceSpec
}

// Size returns the device count.
func (s Shape) Size() int { return len(s.Devices) }

// P9Node describes a POWER9 node of the given chip count, one NX GZIP
// unit per chip (labels "chip0".."chipN-1"). Counts below 1 clamp to 1.
func P9Node(chips int) Shape {
	if chips < 1 {
		chips = 1
	}
	s := Shape{Name: fmt.Sprintf("p9-node-%dchip", chips)}
	for i := 0; i < chips; i++ {
		s.Devices = append(s.Devices, DeviceSpec{
			Label: fmt.Sprintf("chip%d", i), Config: nx.P9Device(),
		})
	}
	return s
}

// z15ChipsPerDrawer is the CP-chip count of one z15 CPC drawer; each CP
// chip carries one on-chip zEDC unit. The maximal machine is 5 drawers.
const z15ChipsPerDrawer = 4

// Z15Node describes a z15 node of the given drawer count, four CP chips
// (one zEDC unit each) per drawer — Z15Node(5) is the maximal topology
// behind claim C6. Labels are "drawer0/cp0".."drawerD-1/cp3". Counts
// below 1 clamp to 1.
func Z15Node(drawers int) Shape {
	if drawers < 1 {
		drawers = 1
	}
	s := Shape{Name: fmt.Sprintf("z15-node-%ddrawer", drawers)}
	for d := 0; d < drawers; d++ {
		for c := 0; c < z15ChipsPerDrawer; c++ {
			s.Devices = append(s.Devices, DeviceSpec{
				Label: fmt.Sprintf("drawer%d/cp%d", d, c), Config: nx.Z15Device(),
			})
		}
	}
	return s
}

// Single describes a one-device node — the shape behind the classic
// single-accelerator API.
func Single(cfg nx.DeviceConfig) Shape {
	return Shape{Name: "single", Devices: []DeviceSpec{{Label: "dev0", Config: cfg}}}
}

// Custom assembles an arbitrary shape from explicit specs. Specs with an
// empty label are labeled by index ("dev<i>").
func Custom(name string, specs ...DeviceSpec) Shape {
	s := Shape{Name: name}
	for i, spec := range specs {
		if spec.Label == "" {
			spec.Label = fmt.Sprintf("dev%d", i)
		}
		s.Devices = append(s.Devices, spec)
	}
	return s
}

// Node is an instantiated device pool: one nx.Device per shape entry,
// plus the dispatch state every submission routes through. Safe for
// concurrent use.
type Node struct {
	shape    Shape
	devs     []*nx.Device
	policy   Policy
	inflight []atomic.Int64

	// caps caches each device's advertised codec set (zero = all), so
	// capability filtering on the pick path is one mask test with no
	// device indirection.
	caps []nx.CodecSet

	// reg holds node-scope instruments (dispatch counters and whatever
	// callers register); per-device instruments live in each device's own
	// registry and are merged at snapshot time.
	reg      *telemetry.Registry
	dispatch []*telemetry.Counter // topology.dispatch{<device label>}

	// Health scoreboard (health.go): one circuit breaker per device plus
	// the instruments that make quarantine activity visible in snapshots.
	health       []devHealth
	quarantines  []*telemetry.Counter // topology.quarantines{<device label>}
	readmissions []*telemetry.Counter // topology.readmissions{<device label>}
	probes       []*telemetry.Counter // topology.probes{<device label>}
	drains       []*telemetry.Counter // topology.drains{<device label>}
	healthyGauge *telemetry.Gauge     // topology.healthy_devices
	// acceptingGauge tracks devices eligible for new work — neither
	// quarantined nor draining. Both the breaker and drain.go move it,
	// each only when the other bit is clear.
	acceptingGauge *telemetry.Gauge // topology.accepting_devices

	// bus, when attached, receives the scoreboard's state transitions
	// (quarantine, readmission, probe admissions). Publish is nil-safe, so
	// the hot path pays one atomic load when no bus is attached.
	bus atomic.Pointer[telemetry.Bus]
}

// New instantiates a node: every device of the shape is built, each with
// its own switchboard, MMU, engines and registry. A nil policy defaults
// to round-robin; an empty shape defaults to a single P9 device.
func New(shape Shape, policy Policy) *Node {
	if len(shape.Devices) == 0 {
		shape = P9Node(1)
	}
	if policy == nil {
		policy = RoundRobin()
	}
	n := &Node{
		shape:    shape,
		policy:   policy,
		inflight: make([]atomic.Int64, len(shape.Devices)),
		reg:      telemetry.NewRegistry(),
		health:   make([]devHealth, len(shape.Devices)),
	}
	vec := n.reg.CounterVec("topology.dispatch")
	qVec := n.reg.CounterVec("topology.quarantines")
	rVec := n.reg.CounterVec("topology.readmissions")
	pVec := n.reg.CounterVec("topology.probes")
	dVec := n.reg.CounterVec("topology.drains")
	for _, spec := range shape.Devices {
		n.devs = append(n.devs, nx.NewDevice(spec.Config))
		n.caps = append(n.caps, spec.Config.Engine.Codecs)
		n.dispatch = append(n.dispatch, vec.With(spec.Label))
		n.quarantines = append(n.quarantines, qVec.With(spec.Label))
		n.readmissions = append(n.readmissions, rVec.With(spec.Label))
		n.probes = append(n.probes, pVec.With(spec.Label))
		n.drains = append(n.drains, dVec.With(spec.Label))
	}
	n.healthyGauge = n.reg.Gauge("topology.healthy_devices")
	n.healthyGauge.Set(int64(len(n.devs)))
	n.acceptingGauge = n.reg.Gauge("topology.accepting_devices")
	n.acceptingGauge.Set(int64(len(n.devs)))
	return n
}

// Size returns the device count.
func (n *Node) Size() int { return len(n.devs) }

// Shape returns the node's topology description.
func (n *Node) Shape() Shape { return n.shape }

// Device returns device i (strict bounds: out of range panics, as a
// slice index would).
func (n *Node) Device(i int) *nx.Device { return n.devs[i] }

// Label returns device i's telemetry label.
func (n *Node) Label(i int) string { return n.shape.Devices[i].Label }

// Policy returns the dispatch policy.
func (n *Node) Policy() Policy { return n.policy }

// Registry exposes the node-scope registry: node-level instruments
// (stream-layer counters, dispatch counts) registered here appear
// unprefixed in MetricsSnapshot alongside the merged device registries.
func (n *Node) Registry() *telemetry.Registry { return n.reg }

// Capable reports whether device i advertises every codec in need (a
// zero advertised set serves everything; a zero need set asks nothing).
func (n *Node) Capable(i int, need nx.CodecSet) bool { return n.caps[i].Supports(need) }

// AnyCapable reports whether any device — healthy or not — could serve
// a request requiring need. Distinguishes "wrong hardware"
// (ErrNoCapableDevice, retrying is pointless) from "all quarantined"
// (ErrNoHealthyDevice, the pool may recover).
func (n *Node) AnyCapable(need nx.CodecSet) bool {
	for i := range n.caps {
		if n.caps[i].Supports(need) {
			return true
		}
	}
	return false
}

// CapableCount returns how many devices advertise every codec in need.
func (n *Node) CapableCount(need nx.CodecSet) int {
	count := 0
	for i := range n.caps {
		if n.caps[i].Supports(need) {
			count++
		}
	}
	return count
}

// Load reports device i's dispatch load: requests picked but not yet
// released plus the device's receive-FIFO occupancy. The least-loaded
// policy ranks devices by it.
func (n *Node) Load(i int) int64 {
	return n.inflight[i].Load() + int64(n.devs[i].Switchboard().Occupancy())
}

// Dispatched reports how many requests the dispatcher has routed to
// device i over the node's lifetime.
func (n *Node) Dispatched(i int) int64 { return n.dispatch[i].Value() }

// VASStats aggregates every device switchboard's counters (see
// vas.Stats.Add for the aggregation semantics).
func (n *Node) VASStats() vas.Stats {
	var agg vas.Stats
	for _, d := range n.devs {
		agg = agg.Add(d.Switchboard().Stats())
	}
	return agg
}

// SetEventBus attaches an event bus to the node and to every device
// (engine hangs and credit leaks publish under each device's label).
// Passing nil detaches everywhere.
func (n *Node) SetEventBus(bus *telemetry.Bus) {
	n.bus.Store(bus)
	for i, d := range n.devs {
		if bus == nil {
			d.SetEventBus(nil, "")
		} else {
			d.SetEventBus(bus, n.shape.Devices[i].Label)
		}
	}
}

// Bus returns the attached event bus, or nil when none is attached.
func (n *Node) Bus() *telemetry.Bus { return n.bus.Load() }

// StartTrace installs one shared tracer across every device: spans from
// all devices interleave in one sink with one id sequence, exactly like
// the single-device Device.StartTrace.
func (n *Node) StartTrace(sink telemetry.Sink) {
	t := telemetry.NewTracer(sink)
	for _, d := range n.devs {
		d.InstallTracer(t)
	}
}

// StopTrace uninstalls tracing from every device and closes the shared
// sink exactly once.
func (n *Node) StopTrace() error {
	var shared *telemetry.Tracer
	for _, d := range n.devs {
		if t := d.RemoveTracer(); shared == nil {
			shared = t
		}
	}
	return shared.Close()
}

// MetricsSnapshot returns one coherent snapshot of the whole node. A
// one-device node yields exactly the device's own snapshot (identical to
// the pre-topology layout) plus the node-scope instruments. Multi-device
// nodes merge the per-device snapshots: every instrument appears under
// its device-prefixed label and again as an aggregate row under the
// original name+label summed across devices (telemetry.MergeSnapshots),
// so totals like nx.requests read the same whether the node has one
// device or twenty.
func (n *Node) MetricsSnapshot() *telemetry.Snapshot {
	var snap *telemetry.Snapshot
	if len(n.devs) == 1 {
		snap = n.devs[0].MetricsSnapshot()
	} else {
		labeled := make([]telemetry.LabeledSnapshot, len(n.devs))
		for i, d := range n.devs {
			labeled[i] = telemetry.LabeledSnapshot{Label: n.shape.Devices[i].Label, Snap: d.MetricsSnapshot()}
		}
		snap = telemetry.MergeSnapshots(labeled)
	}
	snap.Append(n.reg.Snapshot())
	snap.Sort()
	return snap
}

// Context is a process's view of the node: one nx.Context (address
// space + VAS send window) per device, plus the dispatch hook that
// routes each request. Like nx.Context it is safe for concurrent use;
// callers wanting per-worker windows open one node Context per worker.
type Context struct {
	node   *Node
	id     uint64
	pid    nmmu.PID
	ctxs   []*nx.Context
	closed atomic.Bool
}

// viewIDs numbers the views of every node in the process, so that two
// nodes' views never share an identity — nor, through it, the key their
// compresses' work areas are filed under (nx.Context.SetTenant).
var viewIDs atomic.Uint64

// OpenContext registers pid on every device and opens one send window
// per device.
func (n *Node) OpenContext(pid nmmu.PID) *Context {
	c := &Context{
		node: n,
		id:   viewIDs.Add(1),
		pid:  pid,
		ctxs: make([]*nx.Context, len(n.devs)),
	}
	for i, d := range n.devs {
		c.ctxs[i] = d.OpenContext(pid)
		// The node context's ID is the tenant identity the admission gate
		// quotas on; stamping it into each device context threads it onto
		// every span this view produces.
		c.ctxs[i].SetTenant(c.id)
	}
	return c
}

// SetPriorityName publishes the admission-class name this view's
// requests carry to every device context, so spans started afterwards
// are stamped with it.
func (c *Context) SetPriorityName(name string) {
	for _, ctx := range c.ctxs {
		ctx.SetPriorityName(name)
	}
}

// PID returns the context's address-space id.
func (c *Context) PID() nmmu.PID { return c.pid }

// ID returns the context's process-unique identity (the tenant key of the
// admission gate's per-view quotas).
func (c *Context) ID() uint64 { return c.id }

// Size returns the device count.
func (c *Context) Size() int { return len(c.ctxs) }

// Primary returns device 0's context — the compatibility view the
// single-accelerator API is built on.
func (c *Context) Primary() *nx.Context { return c.ctxs[0] }

// At returns device i's context.
func (c *Context) At(i int) *nx.Context { return c.ctxs[i] }

// deflateNeed is the capability requirement of the classic
// single-format entry points (PickIndexAvail, PickSticky): they all
// submit DEFLATE work, so on a mixed-capability node they must route past
// devices that only serve other codecs.
var deflateNeed = nx.Codecs(nx.CodecDeflate)

// pickIndexFor resolves the policy's choice through the capability mask
// and the health scoreboard: the picked device must advertise every
// codec in need and be admissible (healthy, or quarantined with a probe
// due); otherwise the scan wraps to the next capable admissible device.
// The capability test runs first — admit spends probe admissions, which
// must not leak to devices the request could never run on. ok=false
// means no device qualifies — the chosen index is the policy's original
// pick, for callers that submit anyway.
func (c *Context) pickIndexFor(need nx.CodecSet) (int, bool) {
	i := c.node.policy.Pick(c.node, int(c.pid), c.id)
	if i < 0 || i >= len(c.ctxs) {
		i = 0
	}
	if c.node.Capable(i, need) && c.node.admit(i) {
		return i, true
	}
	for j := 1; j < len(c.ctxs); j++ {
		if k := (i + j) % len(c.ctxs); c.node.Capable(k, need) && c.node.admit(k) {
			return k, true
		}
	}
	return i, false
}

// PickIndexAvail routes one request: the node policy selects a device,
// filtered through the health scoreboard, and PickIndexAvail returns its
// index — or ErrNoHealthyDevice when nothing is admissible (all
// quarantined, no probe due), so the caller can take the software path
// immediately. Device selection must happen before buffers are mapped —
// a VA mapped on one device's MMU means nothing to another — so the index
// also keys At and Device. Paired with AcquireIndex/ReleaseIndex it is
// the one dispatch path, and it allocates nothing.
func (c *Context) PickIndexAvail() (int, error) {
	return c.PickIndexCodec(deflateNeed)
}

// PickIndexCodec is PickIndexAvail for an explicit codec requirement:
// only devices advertising every codec in need are considered. It
// distinguishes a pool with no such hardware (ErrNoCapableDevice —
// degrade to software now, re-dispatching is pointless) from one whose
// capable devices are all quarantined (ErrNoHealthyDevice).
func (c *Context) PickIndexCodec(need nx.CodecSet) (int, error) {
	i, ok := c.pickIndexFor(need)
	if !ok {
		if !c.node.AnyCapable(need) {
			return 0, ErrNoCapableDevice
		}
		return 0, ErrNoHealthyDevice
	}
	return i, nil
}

// AcquireIndex counts one dispatch against device i (in-flight load +
// dispatch counter). Every AcquireIndex must be paired with exactly one
// ReleaseIndex carrying the submission's outcome.
func (c *Context) AcquireIndex(i int) {
	c.node.inflight[i].Add(1)
	c.node.dispatch[i].Inc()
}

// ReleaseIndex ends a dispatch acquired with AcquireIndex, feeding the
// outcome into the health scoreboard: nil for success, the submission's
// error to count a failure toward quarantine. Call it exactly once per
// acquire.
func (c *Context) ReleaseIndex(i int, err error) {
	c.ReleaseIndexReq(i, err, 0)
}

// ReleaseIndexReq is ReleaseIndex carrying the root RequestID, so a
// quarantine or readmission provoked by this outcome is attributable to
// the request that tripped it (the event's Req field).
func (c *Context) ReleaseIndexReq(i int, err error, req uint64) {
	c.node.inflight[i].Add(-1)
	c.node.ReportResultReq(i, err, req)
}

// PickSticky routes a whole stream: the policy assigns a device once (at
// stream construction — segments share history or resume state, so they
// stay put) and only the pick itself is counted against the device's
// in-flight load. Stream owners feed per-segment outcomes to the node
// (Node.ReportResultReq, by IndexOf the pinned context) and migrate with
// PickStickyAvoid on failure.
func (c *Context) PickSticky() *nx.Context {
	i, _ := c.pickIndexFor(deflateNeed)
	c.node.dispatch[i].Inc()
	return c.ctxs[i]
}

// IndexOf returns the device index owning ctx, or -1 when ctx is not one
// of this node context's members.
func (c *Context) IndexOf(ctx *nx.Context) int {
	for i, m := range c.ctxs {
		if m == ctx {
			return i
		}
	}
	return -1
}

// PickStickyAvoid re-pins a stream after its device failed: it returns
// an admissible context other than avoid, preferring the policy's
// choice. With no admissible alternative it reports ErrNoHealthyDevice
// (the stream falls back to software). Streams can migrate because
// history and resume state travel in the CRB, not in the device.
func (c *Context) PickStickyAvoid(avoid *nx.Context) (*nx.Context, error) {
	start := c.node.policy.Pick(c.node, int(c.pid), c.id)
	if start < 0 || start >= len(c.ctxs) {
		start = 0
	}
	for j := 0; j < len(c.ctxs); j++ {
		k := (start + j) % len(c.ctxs)
		if c.ctxs[k] != avoid && c.node.Capable(k, deflateNeed) && c.node.admit(k) {
			c.node.dispatch[k].Inc()
			return c.ctxs[k], nil
		}
	}
	return nil, ErrNoHealthyDevice
}

// SubmitBatch submits per-device batches concurrently: groups[i] is the
// batch bound for device i (route entries with PickIndexAvail so the
// dispatch policy and health scoreboard choose the device); nil or empty
// groups are skipped. Each non-empty group costs its device one paste,
// one send-window credit and one FIFO round regardless of size — the
// batched small-request path — and distinct devices run their groups in
// parallel. Returns per-device submission errors indexed like groups;
// per-entry status is in each entry's CSB and Err. Dispatch accounting
// and health feedback are handled here, one acquire/release per entry.
func (c *Context) SubmitBatch(groups [][]nx.BatchEntry) []error {
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		if i >= len(c.ctxs) || len(groups[i]) == 0 {
			continue
		}
		for range groups[i] {
			c.AcquireIndex(i)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := groups[i]
			err := c.ctxs[i].SubmitBatch(g)
			errs[i] = err
			for k := range g {
				outcome := err
				if outcome == nil {
					outcome = g[k].Err
				}
				c.ReleaseIndexReq(i, outcome, g[k].CRB.ReqID)
			}
		}(i)
	}
	wg.Wait()
	return errs
}

// Close releases every device window. Idempotent and safe against
// double close, like nx.Context.Close.
func (c *Context) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	for _, ctx := range c.ctxs {
		ctx.Close()
	}
}
