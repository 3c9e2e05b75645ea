package nx

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nxzip/internal/faultinject"
	"nxzip/internal/freelist"
	"nxzip/internal/lz77"
	"nxzip/internal/nmmu"
	"nxzip/internal/pipeline"
	"nxzip/internal/telemetry"
	"nxzip/internal/vas"
)

// DeviceConfig assembles a full accelerator: engine model, translation
// unit and switchboard.
type DeviceConfig struct {
	Engine EngineConfig
	MMU    nmmu.Config
	VAS    vas.Config
	// Engines is the number of identical engines sharing the receive FIFO
	// (the P9 NX has separate gzip/842 engines; the z15 NXU has two
	// compression cores). Default 1.
	Engines int
	// Submit bounds the recovery work one request may consume (fault
	// resubmit rounds, paste retries, backoff waits, wall-clock). Zero
	// fields take DefaultSubmitPolicy values.
	Submit SubmitPolicy
}

// SubmitPolicy is the submission-side recovery budget: how hard
// Context.submit fights for one request before reporting a typed
// failure instead of spinning forever.
type SubmitPolicy struct {
	// MaxFaultRounds caps translation-fault touch-and-resubmit rounds;
	// beyond it submission fails with ErrFaultStorm. A page that never
	// becomes resident (or an injected fault storm) is bounded by this.
	MaxFaultRounds int
	// MaxPasteAttempts caps paste tries per round (draining the FIFO
	// between tries, as before); beyond it submission fails with
	// ErrDeviceBusy.
	MaxPasteAttempts int
	// MaxBackoffWaits caps how many backoff sleeps a round may take while
	// the FIFO is empty and the paste keeps bouncing — the signature of a
	// wedged window (leaked credits) rather than ordinary saturation.
	// Beyond it submission fails with ErrDeviceBusy.
	MaxBackoffWaits int
	// BackoffBase/BackoffMax shape the exponential backoff (with jitter)
	// between paste retries when there is no queued work to drain,
	// replacing the old busy yield loop.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// DefaultSubmitPolicy returns the shipped recovery budget.
func DefaultSubmitPolicy() SubmitPolicy {
	return SubmitPolicy{
		MaxFaultRounds:   64,
		MaxPasteAttempts: 1 << 20,
		MaxBackoffWaits:  2048,
		BackoffBase:      2 * time.Microsecond,
		BackoffMax:       time.Millisecond,
	}
}

// withDefaults fills zero fields from DefaultSubmitPolicy.
func (p SubmitPolicy) withDefaults() SubmitPolicy {
	def := DefaultSubmitPolicy()
	if p.MaxFaultRounds <= 0 {
		p.MaxFaultRounds = def.MaxFaultRounds
	}
	if p.MaxPasteAttempts <= 0 {
		p.MaxPasteAttempts = def.MaxPasteAttempts
	}
	if p.MaxBackoffWaits <= 0 {
		p.MaxBackoffWaits = def.MaxBackoffWaits
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = def.BackoffBase
	}
	if p.BackoffMax < p.BackoffBase {
		p.BackoffMax = def.BackoffMax
		if p.BackoffMax < p.BackoffBase {
			p.BackoffMax = p.BackoffBase
		}
	}
	return p
}

// P9Device returns the POWER9 single-chip device configuration.
func P9Device() DeviceConfig {
	return DeviceConfig{Engine: P9Engine(), MMU: nmmu.DefaultConfig(), VAS: vas.DefaultConfig(), Engines: 1}
}

// Z15Device returns the z15 on-chip NXU configuration.
func Z15Device() DeviceConfig {
	return DeviceConfig{Engine: Z15Engine(), MMU: nmmu.DefaultConfig(), VAS: vas.DefaultConfig(), Engines: 1}
}

// Device is one on-chip accelerator instance: a receive FIFO fed by user
// windows, N engines, and the shared NMMU.
type Device struct {
	cfg     DeviceConfig
	mmu     *nmmu.MMU
	sb      *vas.Switchboard
	engines []*Engine
	nextEng atomic.Int64
	ctxSeq  atomic.Uint64

	reg     *telemetry.Registry
	met     *devMetrics
	tracer  atomic.Pointer[telemetry.Tracer]
	inj     atomic.Pointer[faultinject.Injector]
	events  atomic.Pointer[eventHook]
	created time.Time
}

// eventHook pairs the node's event bus with this device's topology
// label, so device-local transitions (engine hangs, credit leaks)
// publish under the right name.
type eventHook struct {
	bus   *telemetry.Bus
	label string
}

// devMetrics holds the device-level instruments, resolved once at
// construction so the request path pays only atomic updates.
type devMetrics struct {
	requests     *telemetry.Counter
	inBytes      *telemetry.Counter
	outBytes     *telemetry.Counter
	faultRetries *telemetry.Counter
	syncCalls    *telemetry.Counter
	queueWaitUS  *telemetry.Histogram // paste-accept to dequeue, µs wall-clock
	cc           [ccCount]*telemetry.Counter

	// Per-codec traffic split (nx.codec.* vecs, labeled by codec name):
	// the aggregate nx.requests/in_bytes/out_bytes stay untouched — the
	// SLO engine reads them by exact name.
	codecRequests [codecCount]*telemetry.Counter
	codecInBytes  [codecCount]*telemetry.Counter
	codecOutBytes [codecCount]*telemetry.Counter

	// Recovery instruments (the failure model's visible surface).
	faultStorms    *telemetry.Counter   // submissions that hit the fault-round cap
	engineHangs    *telemetry.Counter   // requests dropped without a CSB write
	offlineRejects *telemetry.Counter   // submissions refused: device offline
	deadlineFails  *telemetry.Counter   // submissions that ran out of deadline
	backoffWaits   *telemetry.Counter   // paste backoff sleeps taken
	backoffUS      *telemetry.Histogram // per-request total backoff, µs wall-clock
}

// bumpCodec splits one completed request into the per-codec series.
// Transcode requests bump both sides; FCMove (no codec) bumps none.
// Allocation-free: it runs on the pooled zero-alloc path.
func (m *devMetrics) bumpCodec(crb *CRB, csb *CSB) {
	need := crb.RequiredCodecs()
	for c := Codec(0); c < codecCount; c++ {
		if need.Has(c) {
			m.codecRequests[c].Inc()
			m.codecInBytes[c].Add(int64(csb.SPBC))
			m.codecOutBytes[c].Add(int64(csb.TPBC))
		}
	}
}

// NewDevice builds a device.
func NewDevice(cfg DeviceConfig) *Device {
	if cfg.Engines <= 0 {
		cfg.Engines = 1
	}
	cfg.Submit = cfg.Submit.withDefaults()
	reg := telemetry.NewRegistry()
	d := &Device{
		cfg:     cfg,
		mmu:     nmmu.New(cfg.MMU),
		sb:      vas.New(cfg.VAS),
		reg:     reg,
		created: time.Now(),
	}
	d.met = &devMetrics{
		requests:     reg.Counter("nx.requests"),
		inBytes:      reg.Counter("nx.in_bytes"),
		outBytes:     reg.Counter("nx.out_bytes"),
		faultRetries: reg.Counter("nx.fault_retries"),
		syncCalls:    reg.Counter("nx.sync_calls"),
		queueWaitUS:  reg.Histogram("nx.queue_wait_us"),

		faultStorms:    reg.Counter("nx.fault_storms"),
		engineHangs:    reg.Counter("nx.engine_hangs"),
		offlineRejects: reg.Counter("nx.offline_rejects"),
		deadlineFails:  reg.Counter("nx.deadline_exceeded"),
		backoffWaits:   reg.Counter("nx.backoff_waits"),
		backoffUS:      reg.Histogram("nx.backoff_us"),
	}
	ccVec := reg.CounterVec("nx.cc")
	for cc := CC(0); cc < ccCount; cc++ {
		d.met.cc[cc] = ccVec.With(cc.String())
	}
	codecReqVec := reg.CounterVec("nx.codec.requests")
	codecInVec := reg.CounterVec("nx.codec.in_bytes")
	codecOutVec := reg.CounterVec("nx.codec.out_bytes")
	for _, c := range AllCodecs() {
		d.met.codecRequests[c] = codecReqVec.With(c.String())
		d.met.codecInBytes[c] = codecInVec.With(c.String())
		d.met.codecOutBytes[c] = codecOutVec.With(c.String())
	}
	d.mmu.SetMetrics(reg)
	d.sb.SetMetrics(reg)
	for i := 0; i < cfg.Engines; i++ {
		d.engines = append(d.engines, NewEngine(cfg.Engine, d.mmu))
	}
	return d
}

// Registry exposes the device's metrics registry so callers can add
// their own instruments (the root package's writer/reader stats live
// here too, keeping one snapshot for the whole stack).
func (d *Device) Registry() *telemetry.Registry { return d.reg }

// StartTrace installs a tracer: from now on every request carries a
// span emitted to sink at CSB completion. Replaces any previous tracer
// without closing its sink. With no tracer installed the request path
// allocates nothing for tracing.
func (d *Device) StartTrace(sink telemetry.Sink) {
	d.tracer.Store(telemetry.NewTracer(sink))
}

// StopTrace uninstalls the tracer and closes its sink. In-flight spans
// started under the old tracer still emit to it.
func (d *Device) StopTrace() error {
	return d.tracer.Swap(nil).Close()
}

// InstallTracer installs an existing tracer without building a new one —
// node-level tracing shares one tracer (one span-id sequence, one sink)
// across every device of a pool.
func (d *Device) InstallTracer(t *telemetry.Tracer) { d.tracer.Store(t) }

// RemoveTracer uninstalls and returns the tracer without closing its
// sink, so a shared sink is closed exactly once by the owner.
func (d *Device) RemoveTracer() *telemetry.Tracer { return d.tracer.Swap(nil) }

// Tracer returns the installed tracer, or nil when tracing is off.
func (d *Device) Tracer() *telemetry.Tracer { return d.tracer.Load() }

// SetInjector installs a fault injector across every layer of the
// device — submission path, engines, translation unit and switchboard
// all consult it at their hook points. Passing nil uninstalls it. With
// no injector installed (the default) every hook is an atomic load plus
// a nil check, mirroring the tracer wiring.
func (d *Device) SetInjector(inj *faultinject.Injector) {
	d.inj.Store(inj)
	for _, e := range d.engines {
		e.SetInjector(inj)
	}
	d.mmu.SetInjector(inj)
	d.sb.SetInjector(inj)
}

// Injector returns the installed injector, or nil when fault injection
// is off.
func (d *Device) Injector() *faultinject.Injector { return d.inj.Load() }

// SetEventBus attaches the node's event bus; label names this device in
// published events. Device-local transitions — engine hangs and
// switchboard credit leaks — publish through it. Passing a nil bus
// detaches, restoring the zero-cost path (one atomic load + nil check).
func (d *Device) SetEventBus(bus *telemetry.Bus, label string) {
	if bus == nil {
		d.events.Store(nil)
		d.sb.SetCreditLeakHook(nil)
		return
	}
	d.events.Store(&eventHook{bus: bus, label: label})
	d.sb.SetCreditLeakHook(func() {
		bus.Publish(telemetry.Event{Type: telemetry.EventCreditLeak, Device: label, Detail: "completion swallowed send-window credit"})
	})
}

// Offline reports whether the device is currently offlined by the
// injector (the chaos harness's kill switch). An offline device refuses
// new submissions with ErrDeviceOffline; requests already on an engine
// complete normally, like a drawer being fenced.
func (d *Device) Offline() bool { return d.inj.Load().Offline() }

// MetricsSnapshot captures every instrument: the registry (vas.*,
// nmmu.*, nx.* and anything callers registered) plus the per-engine
// counters harvested under each engine's lock — requests, bytes, CC
// counts, per-stage cycle sums, and busy/idle cycles (idle = wall-clock
// since device creation converted at the modelled clock, minus busy).
func (d *Device) MetricsSnapshot() *telemetry.Snapshot {
	snap := d.reg.Snapshot()
	elapsedCycles := d.UptimeCycles()
	for i, e := range d.engines {
		ct := e.Counters()
		label := strconv.Itoa(i)
		idle := elapsedCycles - ct.BusyCycles
		if idle < 0 {
			idle = 0
		}
		snap.Counters = append(snap.Counters,
			telemetry.CounterSnapshot{Name: "nx.engine.requests", Label: label, Value: ct.Requests},
			telemetry.CounterSnapshot{Name: "nx.engine.busy_cycles", Label: label, Value: ct.BusyCycles},
			telemetry.CounterSnapshot{Name: "nx.engine.idle_cycles", Label: label, Value: idle},
			telemetry.CounterSnapshot{Name: "nx.engine.in_bytes", Label: label, Value: ct.InBytes},
			telemetry.CounterSnapshot{Name: "nx.engine.out_bytes", Label: label, Value: ct.OutBytes},
		)
		for st, f := range stageFields(&ct.StageCycles) {
			if f != nil {
				snap.Counters = append(snap.Counters, telemetry.CounterSnapshot{
					Name: "nx.engine.stage_cycles", Label: label + "/" + telemetry.Stage(st).String(), Value: *f,
				})
			}
		}
		for cc := CC(0); cc < ccCount; cc++ {
			if n := ct.CCCounts[cc]; n > 0 {
				snap.Counters = append(snap.Counters, telemetry.CounterSnapshot{
					Name: "nx.engine.cc", Label: label + "/" + cc.String(), Value: n,
				})
			}
		}
	}
	snap.Sort()
	return snap
}

// UptimeCycles returns wall-clock time since device creation converted
// to modelled engine cycles — the denominator for utilization.
func (d *Device) UptimeCycles() int64 {
	return int64(time.Since(d.created).Seconds() * d.cfg.Engine.Pipeline.ClockGHz * 1e9)
}

// BusyCycles sums the busy cycles across the device's engines; paired
// with UptimeCycles it yields device utilization.
func (d *Device) BusyCycles() int64 {
	var total int64
	for _, e := range d.engines {
		total += e.Counters().BusyCycles
	}
	return total
}

// MMU exposes the translation unit (tests and the fault experiments evict
// pages through it).
func (d *Device) MMU() *nmmu.MMU { return d.mmu }

// Switchboard exposes the VAS instance.
func (d *Device) Switchboard() *vas.Switchboard { return d.sb }

// EngineCount returns the number of engines behind the receive FIFO.
func (d *Device) EngineCount() int { return len(d.engines) }

// Codecs returns the codec capability set this device's engines
// advertise (zero means all codecs). Dispatch layers route by it.
func (d *Device) Codecs() CodecSet { return d.cfg.Engine.Codecs }

// Engine returns engine i, wrapping modulo EngineCount: Engine(i) never
// panics for i >= 0, which serves callers spreading work with an
// unbounded counter. Callers indexing a known engine range should use
// EngineAt, which refuses out-of-range indices instead of silently
// aliasing engine i%N.
func (d *Device) Engine(i int) *Engine { return d.engines[i%len(d.engines)] }

// EngineAt returns engine i with strict bounds checking — no modulo
// wrap. It reports an error when i is outside [0, EngineCount).
func (d *Device) EngineAt(i int) (*Engine, error) {
	if i < 0 || i >= len(d.engines) {
		return nil, fmt.Errorf("nx: engine index %d out of range [0,%d)", i, len(d.engines))
	}
	return d.engines[i], nil
}

// PipelineConfig returns the engine timing model.
func (d *Device) PipelineConfig() pipeline.Config { return d.cfg.Engine.Pipeline }

// Context is a process's view of the device: an address space, a send
// window, and a bump allocator for buffer VAs. A Context is safe for
// concurrent use by multiple goroutines: requests from all of them ride
// the same send window (sharing its credits) and buffer VAs are handed
// out under a lock. Callers that want per-worker windows — the
// multi-window submission pattern the VAS design is built for — open one
// Context per worker instead.
type Context struct {
	dev    *Device
	pid    nmmu.PID
	window int
	closed atomic.Bool

	// tenant is the node-level view identity this context submits under
	// (topology.Context.ID): stamped onto every span so traces join with
	// admission quotas and tenant-labeled latency series. 0 for raw
	// single-device contexts opened outside a node view.
	tenant uint64
	// area is the key the compresses this context drains borrow their work
	// areas under (engine.go, workArea): the view's identity, so a view's
	// contexts on every device share one, or, outside a view, a key of the
	// context's own.
	area uint64
	// prio points at the admission-class name the owning view currently
	// carries ("interactive", "batch", "background"); nil when the view
	// never set one. A pointer to a static name keeps the span-start
	// read allocation-free.
	prio atomic.Pointer[string]

	mu     sync.Mutex
	nextVA uint64
	// Reusable VA arena: released spans pool in per-size-class free
	// lists (class = log2 of the page count, rounded up) and are handed
	// back by AcquireVA without touching the MMU — steady-state one-shot
	// traffic mints no fresh translations. vaClass remembers each arena
	// span's class so ReleaseVA is self-describing.
	arena   [arenaClasses][]uint64
	vaClass map[uint64]uint8
}

// arenaClasses bounds the arena's size-class ladder: class c spans
// 1<<c pages, so 32 classes cover far beyond any modelled buffer.
const arenaClasses = 32

// areaKeys numbers the contexts opened outside a view. The top bit keeps
// their keys apart from view identities, which count up from 1.
var areaKeys atomic.Uint64

// ctxVASpan is the size of each context's private VA region. Contexts of
// the same address space allocate from disjoint regions so concurrent
// contexts never alias pages.
const ctxVASpan = 1 << 44

// OpenContext registers an address space and opens a send window.
func (d *Device) OpenContext(pid nmmu.PID) *Context {
	d.mmu.CreateSpace(pid)
	return &Context{
		dev:    d,
		pid:    pid,
		window: d.sb.OpenSendWindow(pid),
		area:   1<<63 | areaKeys.Add(1),
		// Leave a null guard region at the bottom of the region.
		nextVA: d.ctxSeq.Add(1)*ctxVASpan + 1<<20,
	}
}

// Close releases the context's send window. Close is idempotent: the
// window is released exactly once and repeated calls are no-ops, so a
// double close can neither panic nor disturb the switchboard's credit
// accounting. Requests in flight at Close drain normally (their credits
// return via Complete); new submissions fail with vas.ErrWindowClosed.
func (c *Context) Close() {
	if c.closed.CompareAndSwap(false, true) {
		c.dev.sb.CloseSendWindow(c.window)
	}
}

// PID returns the context's address-space id.
func (c *Context) PID() nmmu.PID { return c.pid }

// Window returns the context's VAS send-window id (tests and tools
// inspect credits through it).
func (c *Context) Window() int { return c.window }

// SetTenant stamps the node-level view identity this context submits
// under; the work areas of the compresses it drains are filed under it
// too. Setup-time configuration: call before concurrent submission
// begins (the topology layer sets it at context open).
func (c *Context) SetTenant(id uint64) { c.tenant, c.area = id, id }

// Tenant returns the context's view identity (0 when unset).
func (c *Context) Tenant() uint64 { return c.tenant }

// SetPriorityName publishes the admission-class name this context's
// requests carry; spans started afterwards are stamped with it. Safe
// to call concurrently with submission.
func (c *Context) SetPriorityName(name string) { c.prio.Store(&name) }

// priorityName reads the current class name without allocating.
func (c *Context) priorityName() string {
	if p := c.prio.Load(); p != nil {
		return *p
	}
	return ""
}

// MapBuffer reserves a buffer VA range. resident=false maps it
// demand-paged, so the engine faults on first access (experiment E12).
func (c *Context) MapBuffer(size int, resident bool) (uint64, error) {
	if size <= 0 {
		size = 1
	}
	ps := uint64(c.dev.mmu.Config().PageSize)
	span := (uint64(size) + ps - 1) / ps * ps
	c.mu.Lock()
	va := c.nextVA
	c.nextVA += span + ps // guard page between buffers
	c.mu.Unlock()
	if err := c.dev.mmu.Map(c.pid, va, size, resident); err != nil {
		return 0, err
	}
	return va, nil
}

// AcquireVA returns a resident mapping for a buffer of size bytes from
// the context's reusable arena. The first acquisition of a size class
// maps fresh pages; after ReleaseVA the span is handed out again with no
// MMU work at all, so repeated one-shot requests stop minting fresh
// translations (the leak MapBuffer's bump-only allocator had). Spans are
// rounded up to a power-of-two page count and keep a guard page after
// them. Use MapBuffer instead for demand-paged (resident=false) ranges.
func (c *Context) AcquireVA(size int) (uint64, error) {
	if size <= 0 {
		size = 1
	}
	ps := c.dev.mmu.Config().PageSize
	pages := (size + ps - 1) / ps
	cls := uint8(0)
	for 1<<cls < pages {
		cls++
	}
	span := (uint64(1) << cls) * uint64(ps)
	c.mu.Lock()
	if l := c.arena[cls]; len(l) > 0 {
		va := l[len(l)-1]
		c.arena[cls] = l[:len(l)-1]
		c.mu.Unlock()
		return va, nil
	}
	va := c.nextVA
	c.nextVA += span + uint64(ps) // guard page between spans
	if c.vaClass == nil {
		c.vaClass = make(map[uint64]uint8)
	}
	c.vaClass[va] = cls
	c.mu.Unlock()
	if err := c.dev.mmu.Map(c.pid, va, int(span), true); err != nil {
		return 0, err
	}
	return va, nil
}

// ReleaseVA returns an AcquireVA span to the arena for reuse. The pages
// stay mapped (software keeps its buffer pool warm; translations are the
// expensive part). Releasing a VA not handed out by AcquireVA is a no-op.
func (c *Context) ReleaseVA(va uint64) {
	if va == 0 {
		return
	}
	c.mu.Lock()
	if cls, ok := c.vaClass[va]; ok {
		c.arena[cls] = append(c.arena[cls], va)
	}
	c.mu.Unlock()
}

// Report summarizes one completed (possibly retried) request.
type Report struct {
	Engine       string
	Func         FuncCode
	Wrap         Wrap
	InBytes      int
	OutBytes     int
	Ratio        float64 // input/output for compression, output/input for decompression
	Breakdown    pipeline.Breakdown
	Retries      int // fault-and-resubmit rounds
	PasteRejects int // paste bounces (credit/FIFO/injected) across all rounds
	BackoffWaits int // backoff sleeps taken while pasting
	BackoffTime  time.Duration
	WastedCycles int64 // cycles burned by faulted attempts and backoff waits
	TotalCycles  int64 // wasted + final attempt
	Time         time.Duration
	LZ           lz77.HWStats
}

// Submission-path errors. All are errors.Is-able; Retryable classifies
// them for the failover layer.
var (
	// ErrDeviceBusy: the recovery budget for paste retries/backoff waits
	// exhausted (queue saturated or window wedged by leaked credits).
	ErrDeviceBusy = errors.New("nx: device busy: paste rejected repeatedly")
	// ErrFaultStorm: the translation-fault resubmit round cap tripped —
	// a page that never becomes resident, or an injected fault storm.
	ErrFaultStorm = errors.New("nx: translation-fault storm: resubmit budget exhausted")
	// ErrDeviceOffline: the device is fenced (chaos kill, hardware gone).
	ErrDeviceOffline = errors.New("nx: device offline")
	// ErrEngineHang: the engine dropped the request without writing its
	// CSB; the OS-side watchdog reset the engine and reclaimed the credit.
	ErrEngineHang = errors.New("nx: engine hang: no CSB written")
	// ErrDeadlineExceeded: the request's wall-clock budget ran out
	// between recovery rounds.
	ErrDeadlineExceeded = errors.New("nx: request deadline exceeded")
	// ErrCanceled: the request's Cancel channel closed.
	ErrCanceled = errors.New("nx: request canceled")
)

// Retryable reports whether a submission error is worth re-dispatching
// (to the same or, better, another device): the input is intact and the
// failure was transient or device-local. Deadline/cancel failures are
// not retryable (the budget belongs to the caller), and data-plane
// completions (ErrDataCorrupt, ErrInvalidCRB, ErrTargetSpace) are not
// retryable as-is — the failover layer handles those by re-checking or
// rebuilding in software.
func Retryable(err error) bool {
	return errors.Is(err, ErrCRCMismatch) ||
		errors.Is(err, ErrEngineHang) ||
		errors.Is(err, ErrDeviceOffline) ||
		errors.Is(err, ErrDeviceBusy) ||
		errors.Is(err, ErrFaultStorm)
}

// backoffSeq drives the deterministic-enough jitter of paste backoff.
var backoffSeq atomic.Uint64

// jitter returns a sleep in [d/2, d].
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	z := backoffSeq.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z ^= z >> 27
	half := uint64(d) / 2
	return time.Duration(half + z%(half+1))
}

// slot is one request of an envelope: the caller-owned request,
// completion and accounting blocks plus the recovery state the protocol
// keeps per request. A slot is open until err is set or its Report is
// written.
type slot struct {
	crb *CRB
	csb *CSB
	rep *Report
	// err is the slot's terminal submission-protocol failure (a tripped
	// gate, a fault storm, a failed touch). Data-plane completions are
	// CSB.CC. Failed slots never reach an engine again.
	err     error
	span    *telemetry.Span
	retries int   // fault-and-resubmit rounds so far
	wasted  int64 // cycles burned by the faulted rounds
}

// pendingCRB is the submission envelope and the switchboard payload: the
// slots that ride one paste, one credit and one FIFO entry, plus a
// completion token. A single request is an envelope of one slot, a batch
// is an envelope of N, and the synchronous interface runs the same slots
// without the paste/await pair. Whichever submitter goroutine dequeues
// the envelope runs it and signals done; the owner waits on done, so
// concurrent submitters never lose a request another goroutine drained.
//
// Envelopes are pooled, slot backing included, so neither a single
// request nor a batch allocates in steady state: done is a buffered
// (capacity-1) channel carrying one token per completed round instead of
// being closed, so the same envelope cycles through fault rounds and
// back into the pool. ran is the hang check — the CSBs are caller-owned
// and may hold stale bytes, so only the dequeuer's explicit flag says
// whether completions were written.
//
// The fields cross goroutines with well-defined happens-before edges:
// the owner writes the slots (spans included), submitStart, pastedAt and
// rejects before the successful Paste (the switchboard mutex publishes
// them to the dequeuer); the dequeuer writes CSBs, ran and the spans'
// queue and execution stages before the done send publishes them back
// to the owner. Between those two edges the owner touches nothing but
// done.
type pendingCRB struct {
	slots []slot
	done  chan struct{}

	wrapped vas.CRB // reusable switchboard envelope; Payload points back here
	ran     bool    // dequeuer wrote the CSBs (false after an engine hang)
	sync    bool    // synchronous interface: the caller dispatches, no paste
	tr      *telemetry.Tracer

	submitStart time.Time // first paste attempt of this round
	pastedAt    time.Time // stamped just before each paste attempt

	// Paste accounting, summed across rounds: there is one paste per
	// round for the whole envelope, so the first slot to complete carries
	// it on its Report (accounted) and every span shares the count.
	rejects     int // credit/FIFO/injected bounces
	waits       int // backoff sleeps taken
	backoffTime time.Duration
	accounted   bool
}

// pendingPool recycles envelopes (and their slot backing, done channels
// and switchboard wrappers) so the steady-state submission path
// allocates nothing per request, however often the collector runs. A
// context files its envelopes under its work-area key, so two views
// submitting side by side each get back their own.
var pendingPool = freelist.New(func() *pendingCRB {
	p := &pendingCRB{slots: make([]slot, 0, 1), done: make(chan struct{}, 1)}
	p.wrapped.Payload = p
	return p
})

func (c *Context) getPending() *pendingCRB { return pendingPool.GetFor(c.area) }

// putPending drops request references before pooling so recycled
// envelopes pin no caller buffers.
func (c *Context) putPending(p *pendingCRB) {
	clear(p.slots)
	*p = pendingCRB{slots: p.slots[:0], done: p.done, wrapped: p.wrapped}
	pendingPool.PutFor(c.area, p)
}

// finish closes the slot's span; a non-empty label overrides the
// completion code the dequeuer stamped, and the span ends now. A logged
// span takes its times from clock reads the path made anyway: it starts
// at the first paste attempt (or at the failure, if none was made) and
// ends where run or touch last stamped it. A traced span is copied into
// the CRB's span log when it carries one, and only then handed to the
// tracer's sink, which owns it from there.
func (p *pendingCRB) finish(s *slot, label string) {
	sp := s.span
	if sp == nil {
		return
	}
	s.span = nil
	if label != "" {
		sp.CC = label
		sp.End = time.Now()
	}
	if p.tr == nil {
		if sp.Start.IsZero() { // it never ran: it failed at a paste or before one
			sp.Start = p.submitStart
			if sp.Start.IsZero() {
				sp.Start = sp.End
			}
		}
		return
	}
	if dst := s.crb.Spans.Open(); dst != nil {
		sp.CopyTo(dst)
	}
	p.tr.Finish(sp)
}

// fail settles one slot with a submission-protocol error.
func (p *pendingCRB) fail(s *slot, label string, err error) {
	s.err = err
	p.finish(s, label)
}

// end closes every span still open — under an envelope-level failure
// label, or as the dequeuer stamped them when label is empty — and
// surfaces err.
func (p *pendingCRB) end(label string, err error) error {
	for i := range p.slots {
		p.finish(&p.slots[i], label)
	}
	return err
}

// backoffCycles converts wall-clock backoff into engine cycles at the
// modelled clock, so recovery waits show up in the cycle accounting.
func backoffCycles(d *Device, t time.Duration) int64 {
	return int64(t.Seconds() * d.cfg.Engine.Pipeline.ClockGHz * 1e9)
}

// report builds a completed slot's accounting from its completion block
// and recovery state. The envelope's paste accounting — and the backoff
// it waited out, charged as wasted cycles — rides the first slot to
// complete: there is one paste for the whole envelope, not N.
func (p *pendingCRB) report(d *Device, s *slot) {
	csb, rep := s.csb, s.rep
	*rep = Report{
		Engine:       d.cfg.Engine.Pipeline.Name,
		Func:         s.crb.Func,
		Wrap:         s.crb.Wrap,
		InBytes:      csb.SPBC,
		OutBytes:     csb.TPBC,
		Breakdown:    csb.Cycles,
		Retries:      s.retries,
		WastedCycles: s.wasted,
		LZ:           csb.LZ,
	}
	if !p.accounted {
		p.accounted = true
		rep.PasteRejects = p.rejects
		rep.BackoffWaits = p.waits
		rep.BackoffTime = p.backoffTime
		rep.WastedCycles += backoffCycles(d, p.backoffTime)
	}
	rep.TotalCycles = rep.WastedCycles + csb.Cycles.Total
	rep.Time = d.cfg.Engine.Pipeline.Time(rep.TotalCycles)
	if csb.SPBC > 0 && csb.TPBC > 0 {
		rep.Ratio = float64(csb.SPBC) / float64(csb.TPBC)
	}
}

// SubmitInto pastes the CRB, runs an engine, and implements the OS side
// of the recovery protocol: on CCTranslationFault, touch the page and
// resubmit (bounded by SubmitPolicy.MaxFaultRounds — ErrFaultStorm
// beyond it); on paste rejection, drain the FIFO and retry with
// exponential backoff and jitter (bounded by MaxPasteAttempts /
// MaxBackoffWaits — ErrDeviceBusy beyond them). Deadlines, cancellation
// and device offlining are checked between rounds. Safe for concurrent
// callers: the model has no dedicated engine thread, so every submitter
// doubles as an engine driver — it drains the receive FIFO (running
// whatever it dequeues, its own request or a neighbour's) until its own
// request completes.
//
// The caller owns csb and rep (typically pooled or stack-resident): the
// engine writes the completion into csb and the accounting into rep, so
// the steady-state path allocates nothing. On error rep is left partially
// filled and csb holds the last completion written — zero-valued when
// the request never reached an engine.
func (c *Context) SubmitInto(crb *CRB, csb *CSB, rep *Report) error {
	return c.submitOne(slot{crb: crb, csb: csb, rep: rep}, false)
}

// submitOne drives a lone request — SubmitInto, SyncCall, or a batch's
// fault straggler carrying its first round in s — as an envelope of one.
func (c *Context) submitOne(s slot, sync bool) error {
	p := c.getPending()
	defer c.putPending(p)
	p.slots = append(p.slots, s)
	p.sync = sync
	if err := c.submit(p); err != nil {
		return err
	}
	return p.slots[0].err
}

// submit drives an envelope to completion: open a span per slot, run
// recovery rounds until every slot is settled, account the backoff.
// Slot-level failures land in slot.err; the returned error is an
// envelope-level one (device offline or busy, window closed, engine
// hang) that no slot outlived.
func (c *Context) submit(p *pendingCRB) error {
	d := c.dev
	p.tr = d.tracer.Load()
	window := c.window
	if p.sync {
		window = -1 // the synchronous interface bypasses the VAS queue
	}
	for i := range p.slots {
		s := &p.slots[i]
		if s.err != nil {
			continue
		}
		// A tracer's span is emitted when the slot settles; without one, a
		// CRB that carries a span log records into it.
		if p.tr != nil {
			s.span = p.tr.Start(s.crb.Func.String(), int(c.pid), window)
		} else if s.span = s.crb.Spans.Open(); s.span != nil {
			s.span.Op, s.span.PID, s.span.Window = s.crb.Func.String(), int(c.pid), window
		} else {
			continue
		}
		s.span.ReqID = s.crb.ReqID
		s.span.Hop = s.crb.Hop
		s.span.Tenant = c.tenant
		s.span.Priority = c.priorityName()
	}
	err := c.rounds(p)
	if p.backoffTime > 0 {
		d.met.backoffUS.Observe(float64(p.backoffTime) / float64(time.Microsecond))
	}
	return p.end("", err)
}

// rounds is the recovery loop. One round gates the open slots, carries
// them to the engines (paste and await, or direct dispatch on the
// synchronous interface) and settles each: a completion becomes a
// Report, a translation fault is touched and resubmitted. A lone slot
// resubmits in place; a batch's fault stragglers each resubmit alone —
// the rest of the batch is done, so they pay full setup/complete again —
// with the first round carried into their Retries/WastedCycles.
func (c *Context) rounds(p *pendingCRB) error {
	for {
		if live, err := c.gate(p); live == 0 || err != nil {
			return err
		}
		if p.sync {
			p.wrapped.PID = c.pid
			p.submitStart = time.Now()
			c.run(p, p.submitStart, 0)
		} else {
			if pasted, err := c.paste(p); !pasted {
				return err
			}
			c.await(p)
			if !p.ran {
				// The dequeuer dropped the envelope without a CSB write
				// (drainOne counted it; the watchdog reset reclaimed the
				// window credit).
				return p.end("engine-hang", fmt.Errorf("%w (%d requests, first %s)", ErrEngineHang, len(p.slots), p.slots[0].crb.Func))
			}
		}
		lone := len(p.slots) == 1
		again := false
		for i := range p.slots {
			s := &p.slots[i]
			switch {
			case s.err != nil:
			case s.csb.CC != CCTranslationFault:
				p.report(c.dev, s)
			case lone:
				again = c.touch(p, s)
			default:
				// The entry's batch span closes on the fault; the
				// resubmission emits its own under the same ReqID.
				p.finish(s, "")
				if c.touch(p, s) {
					s.crb.Chained, s.crb.ChainedComplete = false, false
					s.err = c.submitOne(slot{crb: s.crb, csb: s.csb, rep: s.rep, retries: s.retries, wasted: s.wasted}, false)
				}
			}
		}
		if !again {
			return nil
		}
	}
}

// gate checks the liveness of every open slot — cancellation, then
// deadline — failing the ones that tripped, and then of the device.
// Called between recovery rounds and while the envelope is still ours
// during a paste, never mid-engine. It reports how many slots are still
// open; an offline device fails the envelope.
func (c *Context) gate(p *pendingCRB) (live int, err error) {
	d := c.dev
	for i := range p.slots {
		s := &p.slots[i]
		if s.err != nil {
			continue
		}
		if s.crb.Cancel != nil {
			select {
			case <-s.crb.Cancel:
				p.fail(s, "canceled", ErrCanceled)
				continue
			default:
			}
		}
		if !s.crb.Deadline.IsZero() && time.Now().After(s.crb.Deadline) {
			d.met.deadlineFails.Inc()
			p.fail(s, "deadline", fmt.Errorf("%w (after %d fault rounds, %d backoff waits)", ErrDeadlineExceeded, s.retries, p.waits))
			continue
		}
		live++
	}
	if live > 0 && d.Offline() {
		d.met.offlineRejects.Inc()
		return live, p.end("device-offline", ErrDeviceOffline)
	}
	return live, nil
}

// paste puts the envelope on the receive FIFO. A bounce means credit or
// FIFO pressure: drain one entry and retry. An empty FIFO with the paste
// still bouncing means the backlog is running on other goroutines — or
// the window's credits have leaked — so back off exponentially instead
// of spinning. The gate runs again after every backoff sleep; a lone
// request also re-checks after every bounce. pasted is false with a nil
// error when every slot's gate tripped while the envelope waited.
func (c *Context) paste(p *pendingCRB) (pasted bool, err error) {
	d := c.dev
	pol := d.cfg.Submit
	backoff := pol.BackoffBase
	waits := 0
	p.ran = false
	for try := 0; try < pol.MaxPasteAttempts && waits < pol.MaxBackoffWaits; try++ {
		p.pastedAt = time.Now()
		if try == 0 {
			p.submitStart = p.pastedAt
		}
		err := d.sb.Paste(c.window, &p.wrapped)
		if err == nil {
			return true, nil
		}
		if errors.Is(err, vas.ErrWindowClosed) {
			return false, p.end("window-closed", err)
		}
		p.rejects++
		slept := !c.drainOne()
		if slept {
			sleep := jitter(backoff)
			time.Sleep(sleep)
			waits++
			p.waits++
			p.backoffTime += sleep
			d.met.backoffWaits.Inc()
			if backoff *= 2; backoff > pol.BackoffMax {
				backoff = pol.BackoffMax
			}
		}
		if slept || len(p.slots) == 1 {
			if live, err := c.gate(p); live == 0 || err != nil {
				return false, err
			}
		}
	}
	return false, p.end("device-busy", fmt.Errorf("%w (%d requests: %d rejects, %d backoff waits)", ErrDeviceBusy, len(p.slots), p.rejects, p.waits))
}

// await drains the FIFO until the envelope's own completion token
// arrives. Engines pick up work in FIFO order; an empty FIFO before our
// completion means another submitter dequeued our envelope — wait for it
// to finish the run.
func (c *Context) await(p *pendingCRB) {
	for {
		select {
		case <-p.done:
			return
		default:
			if !c.drainOne() {
				<-p.done
				return
			}
		}
	}
}

// drainOne serves the next FIFO entry, if there is one: the envelope's
// queue phases land on its spans, its slots run (unless the engine hangs),
// the switchboard completion returns the credit, and the owner gets its
// token.
func (c *Context) drainOne() bool {
	d := c.dev
	wrapped := d.sb.Dequeue()
	if wrapped == nil {
		return false
	}
	p := wrapped.Payload.(*pendingCRB)
	dequeuedAt := time.Now()
	for i := range p.slots {
		// This goroutine owns the spans between Dequeue and the done
		// send. Every slot shares the envelope's submit/FIFO phases;
		// Engine stays -1 unless an engine picks the slot up.
		if sp := p.slots[i].span; sp != nil {
			sp.Engine = -1
			sp.PasteRejects = p.rejects
			sp.RecordStage(telemetry.StageSubmit, p.submitStart, p.pastedAt, 0)
			sp.RecordStage(telemetry.StageFIFO, p.pastedAt, dequeuedAt, 0)
		}
	}
	if d.inj.Load().Decide(faultinject.EngineHang) {
		// Hung engine: the whole envelope is dropped without a CSB write,
		// like a wedged descriptor ring. The OS watchdog resets the engine
		// and completes the window credit so the queue keeps flowing; the
		// submitter sees ran=false and reports ErrEngineHang. Modelled as
		// an immediate drop — no wall-clock stall — to keep chaos tests
		// deterministic and fast.
		d.met.engineHangs.Inc()
		if h := d.events.Load(); h != nil {
			h.bus.Publish(telemetry.Event{Type: telemetry.EventEngineHang, Device: h.label, Req: p.slots[0].crb.ReqID,
				Detail: "request dropped without CSB write; watchdog reclaimed credit"})
		}
	} else {
		queueWait := dequeuedAt.Sub(p.pastedAt)
		d.met.queueWaitUS.Observe(float64(queueWait) / float64(time.Microsecond))
		c.run(p, dequeuedAt, queueWait)
	}
	d.sb.Complete(wrapped)
	p.done <- struct{}{}
	return true
}

// run executes every open slot back to back, spread round-robin across
// the device's engines (which process concurrently — the z15 NXU pairs
// two compression cores behind one queue), the way a driver services a
// ring of descriptors. When more than one slot runs, the first pays the
// envelope's full paste-to-dispatch setup and the rest chain behind it;
// the last one's CSB writeback doubles as the envelope completion and
// the earlier ones only store their CSB.
func (c *Context) run(p *pendingCRB, start time.Time, queueWait time.Duration) {
	d := c.dev
	m := d.met
	live, last := 0, -1
	for i := range p.slots {
		if p.slots[i].err == nil {
			live++
			last = i
		}
	}
	ran := 0
	for i := range p.slots {
		s := &p.slots[i]
		if s.err != nil {
			continue
		}
		if live > 1 {
			s.crb.Chained = ran > 0
			s.crb.ChainedComplete = i != last
		}
		ran++
		idx := int(d.nextEng.Add(1)-1) % len(d.engines)
		d.engines[idx].processInto(p.wrapped.PID, s.crb, s.csb, c.area)
		csb := s.csb
		csb.QueueWait = queueWait
		m.requests.Inc()
		if p.sync {
			m.syncCalls.Inc()
		}
		m.inBytes.Add(int64(csb.SPBC))
		m.outBytes.Add(int64(csb.TPBC))
		m.bumpCodec(s.crb, csb)
		if cc := csb.CC; cc >= 0 && cc < ccCount {
			m.cc[cc].Inc()
		}
		if sp := s.span; sp != nil {
			// Each span carries its own pipeline breakdown — the chained
			// discount shows up as a smaller setup stage on slots > 0.
			end := time.Now()
			if sp.Start.IsZero() {
				sp.Start = p.submitStart // a logged span's first round
			}
			sp.End = end
			sp.Engine = idx
			sp.ERATHits += csb.ERATHits
			sp.ERATMisses += csb.ERATMisses
			sp.DeviceCycles += csb.Cycles.Total
			sp.InBytes = csb.SPBC
			sp.OutBytes = csb.TPBC
			sp.CC = csb.CC.String()
			var stages [telemetry.StageComplete + 1]telemetry.PipelineStage
			sp.RecordPipeline(start, end, pipelineStages(stages[:0], csb.Cycles))
			start = end
		}
	}
	p.ran = true
}

// touch is the OS side of one translation fault: count the round, hold
// it to the cap, make the page present. It reports whether the slot may
// resubmit; otherwise the slot has failed.
func (c *Context) touch(p *pendingCRB, s *slot) bool {
	d := c.dev
	csb := s.csb
	s.retries++
	s.wasted += csb.Cycles.Total
	d.met.faultRetries.Inc()
	if s.retries >= d.cfg.Submit.MaxFaultRounds {
		d.met.faultStorms.Inc()
		p.fail(s, "fault-storm", fmt.Errorf("%w (%d rounds, va %#x)", ErrFaultStorm, s.retries, csb.FaultVA))
		return false
	}
	faultStart := time.Now()
	if err := d.mmu.Touch(c.pid, csb.FaultVA); err != nil {
		p.fail(s, "", fmt.Errorf("nx: fault handler: %w", err))
		return false
	}
	if sp := s.span; sp != nil {
		// The done token has arrived, so the span is ours again: record
		// the OS interlude, attributed to the round that faulted, then
		// open the next round.
		sp.End = time.Now()
		sp.RecordStage(telemetry.StageFault, faultStart, sp.End, csb.Cycles.Total)
		sp.Retries++
	}
	return true
}

// stageFields is the engine's one stage table. Keyed by
// telemetry.Stage, it holds the field of b that carries each modelled
// stage's cycles, nil for the stages the model does not charge (submit,
// fifo). A span records its pipeline in key order, the stage_cycles
// counters are labeled with the keys' names, and addStages sums along it.
func stageFields(b *pipeline.Breakdown) [telemetry.StageComplete + 1]*int64 {
	return [...]*int64{
		telemetry.StageSetup: &b.Setup, telemetry.StageTranslate: &b.Translate,
		telemetry.StageDHTGen: &b.DHTGen, telemetry.StageDMAIn: &b.DMAIn, telemetry.StageLZ: &b.LZ,
		telemetry.StageEncode: &b.Encode, telemetry.StageDecode: &b.Decode,
		telemetry.StageDMAOut: &b.DMAOut, telemetry.StageComplete: &b.Complete,
	}
}

// pipelineStages appends a modelled breakdown to dst as span stages
// (only called on the traced path).
func pipelineStages(dst []telemetry.PipelineStage, b pipeline.Breakdown) []telemetry.PipelineStage {
	for st, f := range stageFields(&b) {
		if f != nil {
			dst = append(dst, telemetry.PipelineStage{Stage: telemetry.Stage(st), Cycles: *f})
		}
	}
	return dst
}

// Compress runs a full user-level compression: map buffers, submit,
// handle faults, return output and accounting.
func (c *Context) Compress(input []byte, fc FuncCode, wrap Wrap, resident bool) ([]byte, *Report, error) {
	srcVA, err := c.MapBuffer(len(input), resident)
	if err != nil {
		return nil, nil, err
	}
	capOut := 2*len(input) + 1024
	dstVA, err := c.MapBuffer(capOut, resident)
	if err != nil {
		return nil, nil, err
	}
	crb := &CRB{
		Func:      fc,
		Wrap:      wrap,
		Input:     input,
		SourceVA:  srcVA,
		TargetVA:  dstVA,
		TargetCap: capOut,
	}
	csb, rep, err := c.Submit(crb)
	if err != nil {
		return nil, rep, err
	}
	if csb.CC != CCSuccess {
		return nil, rep, ccError(fc.String(), csb)
	}
	return csb.Output, rep, nil
}

// Decompress runs a full user-level decompression.
func (c *Context) Decompress(input []byte, wrap Wrap, maxOutput int, resident bool) ([]byte, *Report, error) {
	srcVA, err := c.MapBuffer(len(input), resident)
	if err != nil {
		return nil, nil, err
	}
	if maxOutput <= 0 {
		maxOutput = 64 * len(input)
	}
	dstVA, err := c.MapBuffer(maxOutput, resident)
	if err != nil {
		return nil, nil, err
	}
	crb := &CRB{
		Func:      FCDecompress,
		Wrap:      wrap,
		Input:     input,
		SourceVA:  srcVA,
		TargetVA:  dstVA,
		TargetCap: maxOutput,
		MaxOutput: maxOutput,
	}
	csb, rep, err := c.Submit(crb)
	if err != nil {
		return nil, rep, err
	}
	if csb.CC != CCSuccess {
		return nil, rep, ccError("decompress", csb)
	}
	return csb.Output, rep, nil
}

// Submit exposes the raw CRB path for callers that build their own
// request blocks (the canned-DHT experiment, 842, corrupt-data tests).
// It allocates the CSB and Report per call; allocation-free callers use
// SubmitInto with pooled blocks instead. On error the returned CSB is
// non-nil and holds the last completion written — zero-valued when the
// request never reached an engine.
func (c *Context) Submit(crb *CRB) (*CSB, *Report, error) {
	return c.submitNew(crb, false)
}

// SyncCall submits a request through the synchronous-instruction
// interface (the z15 integration style): no VAS paste, no queue — the
// calling CPU dispatches the engine directly and waits. The rest of the
// protocol still applies: the liveness gates run at the top of every
// round, and a fault completes the instruction partially so software
// retries after touching the page. Returns an error on devices without
// a synchronous path.
func (c *Context) SyncCall(crb *CRB) (*CSB, *Report, error) {
	if c.dev.cfg.Engine.Pipeline.SyncSetupCycles <= 0 {
		return nil, nil, fmt.Errorf("nx: %s has no synchronous submission interface", c.dev.cfg.Engine.Pipeline.Name)
	}
	crb.SyncSubmit = true
	return c.submitNew(crb, true)
}

// submitNew is submitOne into freshly allocated completion blocks.
func (c *Context) submitNew(crb *CRB, sync bool) (*CSB, *Report, error) {
	csb := &CSB{}
	rep := &Report{}
	if err := c.submitOne(slot{crb: crb, csb: csb, rep: rep}, sync); err != nil {
		return csb, nil, err
	}
	return csb, rep, nil
}

// Device returns the device this context is bound to.
func (c *Context) Device() *Device { return c.dev }
