package admission

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"nxzip/internal/telemetry"
)

// ErrCanceled reports a request whose Cancel channel fired while it sat
// in the pending queue. It is caller cancellation, not overload:
// errors.Is(err, ErrOverloaded) is false.
var ErrCanceled = errors.New("admission: request canceled while queued")

// ErrWouldWait reports a NoWait admission attempt that found no free
// slot: the gate would have parked the request in the pending queue.
// It is not a shed — nothing is counted and no event is published —
// the caller is expected to make progress (dispatch and release tickets
// it already holds) and present the request again.
var ErrWouldWait = errors.New("admission: would wait for a slot")

// Load is one sample of the dispatch tier's congestion, produced by the
// probe closure the owner wires in (the root samples every device's
// receive-FIFO occupancy and the health scoreboard):
//
//	Queued   — total receive-FIFO occupancy across all devices;
//	Capacity — total FIFO slots on devices currently accepting work
//	           (healthy, not draining). Shrinks as devices quarantine
//	           or drain, so losing half the pool doubles the pressure
//	           of the same queue depth.
type Load struct {
	Queued   float64
	Capacity float64
}

// Decision is the controller's verdict on an admitted request.
type Decision int

const (
	// DecisionAdmit: proceed to hardware dispatch; the returned Ticket
	// holds an in-flight slot until Release.
	DecisionAdmit Decision = iota
	// DecisionDegrade: brownout re-route — run the software fallback
	// instead of hardware. No slot is held; there is no ticket.
	DecisionDegrade
)

// AdmitRequest describes one request presenting at the gate.
type AdmitRequest struct {
	Class  Class
	Tenant uint64 // per-Context/view identity for quota accounting
	// Deadline bounds queue wait: a queued request is evicted early
	// enough that the caller sees the shed before the deadline passes.
	// Zero means no deadline (MaxWait still applies).
	Deadline time.Time
	// Cancel aborts a queued wait when closed.
	Cancel <-chan struct{}
	// NoWait makes a saturated gate return ErrWouldWait instead of
	// parking the request in the pending queue. Batch submission uses
	// it: the batch path holds a ticket per request it has accepted so
	// far, and parking behind slots it holds itself would stall until
	// MaxWait with no possible granter.
	NoWait bool
}

// Ticket is an admitted request's in-flight slot, a value its owner
// holds (the zero Ticket holds none). Release it when the request
// completes (success or failure); Release empties the ticket it is called
// on, so a second call on it is a no-op and defer is safe alongside
// explicit calls. A copy is a second claim on the same slot: release
// through one variable only.
type Ticket struct {
	c      *Controller
	tenant uint64
}

// Release frees the slot, handing it to the oldest highest-priority
// queued waiter if one is pending.
func (t *Ticket) Release() {
	if t.c == nil {
		return
	}
	c := t.c
	t.c = nil
	c.release(t.tenant)
}

// tenantActiveWindow is how long an idle tenant keeps counting toward
// the quota denominator after its last admission: long enough that a
// tenant issuing serial requests holds a stable share, short enough
// that a departed tenant stops diluting everyone else's.
const tenantActiveWindow = time.Second

// tenantIdleEvict is both the sweep cadence and the idle age at which
// an unregistered tenant entry is deleted, bounding the tenants map on
// nodes with view churn. Explicitly registered tenants are removed by
// UnregisterTenant (the root wires it to view Close).
const tenantIdleEvict = 10 * time.Second

// tenantState is one tenant's quota accounting.
type tenantState struct {
	weight     int
	inflight   int
	registered bool      // declared via RegisterTenant; exempt from the idle sweep
	lastSeen   time.Time // last Admit; drives the active window and the sweep
}

// waiter is one queued request, parked in Admit until a slot frees, a
// timer fires, or CoDel evicts it.
type waiter struct {
	class  Class
	tenant uint64
	enq    time.Time
	grant  chan error // buffered(1): nil = slot granted, else shed error
	elem   *list.Element
	done   bool // guarded by Controller.mu: granted or evicted
}

// Controller is the admission gate. One per node; safe for concurrent
// use. All state is under one mutex — the hot path is a sample (rate
// limited), a ladder check and a couple of integer updates, far below
// the cost of the dispatch it guards.
type Controller struct {
	cfg   Config
	probe func() Load
	now   func() time.Time // injectable for deterministic queue tests

	mu       sync.Mutex
	inflight int
	pressure float64
	sampled  time.Time
	tenants  map[uint64]*tenantState
	swept    time.Time // last idle-tenant sweep

	// Pending queue: one FIFO per class, granted in class order so a
	// freed slot always goes to the oldest waiter of the best class.
	queues [ClassCount]*list.List
	queued int

	// CoDel state (see codelDropLocked).
	firstAbove time.Time
	dropping   bool
	dropCount  int
	dropNext   time.Time

	bus *telemetry.Bus // EventShed, one per shed decision (nil: none)

	admitted [ClassCount]*telemetry.Counter // admission.admitted{class}
	shed     [ClassCount]*telemetry.Counter // admission.shed{class}
	degraded [ClassCount]*telemetry.Counter // admission.degraded{class}
	evicted  *telemetry.Counter             // admission.evicted (CoDel + timeout)
	waitHist *telemetry.Histogram           // admission.queue_wait_us
	presG    *telemetry.Gauge               // admission.pressure_x1000
	inflG    *telemetry.Gauge               // admission.inflight
	queueG   *telemetry.Gauge               // admission.queued
	levelG   *telemetry.Gauge               // admission.level
}

// NewController builds the gate. probe supplies congestion samples (nil
// means "no occupancy signal": pressure derives from in-flight count
// alone); instruments register in reg (nil gets a private registry).
// A zero cfg.MaxInflight defaults to 64 — owners should derive it from
// topology capacity instead.
func NewController(cfg Config, probe func() Load, reg *telemetry.Registry) *Controller {
	cfg = cfg.withDefaults()
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Controller{
		cfg:     cfg,
		probe:   probe,
		now:     time.Now,
		tenants: make(map[uint64]*tenantState),
	}
	aVec := reg.CounterVec("admission.admitted")
	sVec := reg.CounterVec("admission.shed")
	dVec := reg.CounterVec("admission.degraded")
	for cl := Class(0); cl < ClassCount; cl++ {
		c.admitted[cl] = aVec.With(cl.String())
		c.shed[cl] = sVec.With(cl.String())
		c.degraded[cl] = dVec.With(cl.String())
		c.queues[cl] = list.New()
	}
	c.evicted = reg.Counter("admission.evicted")
	c.waitHist = reg.Histogram("admission.queue_wait_us")
	c.presG = reg.Gauge("admission.pressure_x1000")
	c.inflG = reg.Gauge("admission.inflight")
	c.queueG = reg.Gauge("admission.queued")
	c.levelG = reg.Gauge("admission.level")
	return c
}

// SetBus makes every shed decision publish EventShed on bus. Call
// before traffic.
func (c *Controller) SetBus(bus *telemetry.Bus) {
	c.mu.Lock()
	c.bus = bus
	c.mu.Unlock()
}

// RegisterTenant declares a tenant's quota weight (default 1 when a
// tenant first appears unregistered). Quotas divide capacity by weight
// share among currently active tenants, enforced only under brownout —
// the gate is work-conserving at normal load.
func (c *Controller) RegisterTenant(id uint64, weight int) {
	if weight < 1 {
		weight = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tenants[id]
	if !ok {
		t = &tenantState{}
		c.tenants[id] = t
	}
	t.weight = weight
	t.registered = true
}

// UnregisterTenant removes a tenant's registration — the root calls it
// when a view closes. An entry with requests still in flight is only
// demoted to unregistered (so release accounting stays balanced); the
// idle sweep reaps it once it drains.
func (c *Controller) UnregisterTenant(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tenants[id]
	if !ok {
		return
	}
	t.registered = false
	if t.inflight == 0 {
		delete(c.tenants, id)
	}
}

// tenantLocked returns (auto-registering) the tenant's state, stamping
// its activity for the quota window.
func (c *Controller) tenantLocked(id uint64, now time.Time) *tenantState {
	t, ok := c.tenants[id]
	if !ok {
		t = &tenantState{weight: 1}
		c.tenants[id] = t
	}
	t.lastSeen = now
	return t
}

// activeWeightLocked sums the quota weights of tenants currently
// active — holding in-flight work or seen within tenantActiveWindow.
// Quotas divide by this, not by every tenant ever seen, so view churn
// on a long-running node cannot collapse live tenants' shares.
func (c *Controller) activeWeightLocked(now time.Time) int {
	w := 0
	for _, t := range c.tenants {
		if t.inflight > 0 || now.Sub(t.lastSeen) <= tenantActiveWindow {
			w += t.weight
		}
	}
	return w
}

// sweepTenantsLocked evicts long-idle unregistered tenant entries, rate
// limited to one scan per tenantIdleEvict, bounding the map under view
// churn.
func (c *Controller) sweepTenantsLocked(now time.Time) {
	if !c.swept.IsZero() && now.Sub(c.swept) < tenantIdleEvict {
		return
	}
	c.swept = now
	for id, t := range c.tenants {
		if t.inflight == 0 && !t.registered && now.Sub(t.lastSeen) > tenantIdleEvict {
			delete(c.tenants, id)
		}
	}
}

// samplePressureLocked advances the EWMA pressure estimate, rate
// limited to one probe per PressurePeriod so the admission path does
// not scan every device FIFO on every request.
func (c *Controller) samplePressureLocked(now time.Time) {
	if !c.sampled.IsZero() && now.Sub(c.sampled) < c.cfg.PressurePeriod {
		return
	}
	c.sampled = now
	sample := float64(c.inflight) / float64(c.cfg.MaxInflight)
	if c.probe != nil {
		l := c.probe()
		occ := 2.0 // no accepting capacity left: fully saturated
		if l.Capacity > 0 {
			occ = l.Queued / l.Capacity
		} else if l.Queued == 0 {
			occ = 0
		}
		if occ > sample {
			sample = occ
		}
	}
	c.pressure += c.cfg.PressureAlpha * (sample - c.pressure)
	c.presG.Set(int64(c.pressure * 1000))
}

// levelLocked maps the current estimate onto the brownout ladder.
func (c *Controller) levelLocked() Level {
	lvl := LevelNormal
	switch {
	case c.inflight >= c.cfg.MaxInflight:
		lvl = LevelSaturated
	case c.pressure >= c.cfg.ShedBatch:
		lvl = LevelShedBatch
	case c.pressure >= c.cfg.ShedBackground:
		lvl = LevelShedBackground
	}
	c.levelG.Set(int64(lvl))
	return lvl
}

// retryAfterLocked sizes the retry-after hint by how deep into overload
// the node is: one CoDel interval at the brownout threshold, growing
// linearly with excess pressure.
func (c *Controller) retryAfterLocked() time.Duration {
	over := c.pressure - c.cfg.ShedBackground
	if over < 0 {
		over = 0
	}
	d := c.cfg.QueueInterval + time.Duration(over*float64(c.cfg.QueueInterval))
	if max := 5 * time.Second; d > max {
		d = max
	}
	return d
}

// rejectLocked mints the shed error, counts it, and publishes it on the
// bus (Publish never blocks and takes only the bus's own lock).
func (c *Controller) rejectLocked(class Class, tenant uint64, reason string) error {
	retry := c.retryAfterLocked()
	c.shed[class].Inc()
	c.bus.Publish(telemetry.Event{Type: telemetry.EventShed, Tenant: tenant,
		Detail: fmt.Sprintf("%s request shed (%s), retry after %v", class, reason, retry)})
	return &OverloadError{Class: class, Tenant: tenant, Reason: reason, RetryAfter: retry}
}

// Admit presents one request at the gate. Outcomes:
//
//	Ticket, DecisionAdmit, nil     — dispatch to hardware; Release the ticket.
//	Ticket{}, DecisionDegrade, nil — brownout: run the software fallback.
//	Ticket{}, _, err               — shed (errors.Is(err, ErrOverloaded)) or
//	                                 canceled while queued (ErrCanceled).
//	                                 With NoWait set, a saturated gate
//	                                 returns ErrWouldWait (neither a shed
//	                                 nor counted) instead of queueing.
//
// A nil *Controller admits everything (no gate configured) with the zero
// Ticket: callers on the hot path pay a single nil check.
func (c *Controller) Admit(req AdmitRequest) (Ticket, Decision, error) {
	if c == nil {
		return Ticket{}, DecisionAdmit, nil
	}
	class := req.Class
	if class < 0 || class >= ClassCount {
		class = Batch
	}
	now := c.now()

	c.mu.Lock()
	c.samplePressureLocked(now)
	c.sweepTenantsLocked(now)
	level := c.levelLocked()

	// Brownout ladder, top rung first. Background is denied at the first
	// rung; batch re-routes to software at the second; interactive rides
	// through to the slot check and, past saturation, the pending queue.
	if level >= LevelShedBackground && class == Background {
		err := c.rejectLocked(class, req.Tenant, "brownout")
		c.mu.Unlock()
		return Ticket{}, 0, err
	}
	if level >= LevelShedBatch && class == Batch {
		c.degraded[class].Inc()
		c.mu.Unlock()
		return Ticket{}, DecisionDegrade, nil
	}

	// A NoWait caller asks only "is there a free slot right now": a full
	// gate answers ErrWouldWait, checked before quota enforcement — the
	// caller's own outstanding tickets are usually what holds the slots,
	// and a quota shed here would misread self-occupancy as overload.
	if req.NoWait && c.inflight >= c.cfg.MaxInflight {
		c.mu.Unlock()
		return Ticket{}, 0, ErrWouldWait
	}

	// Weighted tenant quota, enforced only under brownout so the gate is
	// work-conserving: at normal load any tenant may use the whole node.
	// The denominator is the weight of *active* tenants (this one just
	// stamped itself active), so a lone live tenant keeps the whole node
	// no matter how many others came and went.
	t := c.tenantLocked(req.Tenant, now)
	if level > LevelNormal {
		if aw := c.activeWeightLocked(now); aw > 0 {
			quota := int(math.Ceil(float64(t.weight) / float64(aw) * float64(c.cfg.MaxInflight)))
			if t.inflight >= quota {
				err := c.rejectLocked(class, req.Tenant, "quota")
				c.mu.Unlock()
				return Ticket{}, 0, err
			}
		}
	}

	// Free slot: admit.
	if c.inflight < c.cfg.MaxInflight {
		c.inflight++
		t.inflight++
		c.inflG.Set(int64(c.inflight))
		c.admitted[class].Inc()
		c.mu.Unlock()
		return Ticket{c: c, tenant: req.Tenant}, DecisionAdmit, nil
	}

	// No slot: level was LevelSaturated (the lock pins inflight), so the
	// ladder above already denied background and degraded batch, and a
	// NoWait caller was already answered — only blocking interactive
	// work reaches here. Park it in the bounded pending queue.
	if c.queued >= c.cfg.QueueLimit {
		err := c.rejectLocked(class, req.Tenant, "queue-full")
		c.mu.Unlock()
		return Ticket{}, 0, err
	}
	w := &waiter{class: class, tenant: req.Tenant, enq: now, grant: make(chan error, 1)}
	w.elem = c.queues[class].PushBack(w)
	c.queued++
	c.queueG.Set(int64(c.queued))
	c.mu.Unlock()

	return c.wait(w, req)
}

// wait parks a queued request until grant, timeout, deadline or cancel.
func (c *Controller) wait(w *waiter, req AdmitRequest) (Ticket, Decision, error) {
	timeout := c.cfg.MaxWait
	reason := "queue-timeout"
	if !req.Deadline.IsZero() {
		if d := req.Deadline.Sub(w.enq); d < timeout {
			timeout = d
			reason = "deadline"
		}
	}
	if timeout < 0 {
		timeout = 0
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()

	select {
	case err := <-w.grant:
		if err != nil {
			return Ticket{}, 0, err
		}
		return Ticket{c: c, tenant: w.tenant}, DecisionAdmit, nil
	case <-timer.C:
		return c.abandon(w, reason, nil)
	case <-req.Cancel:
		return c.abandon(w, "", ErrCanceled)
	}
}

// abandon removes a waiter that gave up (timer, deadline, cancel). If a
// grant raced in first and the waiter merely timed out, the grant wins —
// the slot is already ours. A *canceled* waiter must never dispatch,
// so a racing grant is handed straight back and the caller still sees
// ErrCanceled.
func (c *Controller) abandon(w *waiter, reason string, cause error) (Ticket, Decision, error) {
	c.mu.Lock()
	if w.done {
		c.mu.Unlock()
		if err := <-w.grant; err != nil {
			return Ticket{}, 0, err
		}
		if cause != nil {
			c.release(w.tenant)
			return Ticket{}, 0, cause
		}
		return Ticket{c: c, tenant: w.tenant}, DecisionAdmit, nil
	}
	w.done = true
	c.queues[w.class].Remove(w.elem)
	c.queued--
	c.queueG.Set(int64(c.queued))
	if cause != nil {
		c.mu.Unlock()
		return Ticket{}, 0, cause
	}
	c.evicted.Inc()
	err := c.rejectLocked(w.class, w.tenant, reason)
	c.mu.Unlock()
	return Ticket{}, 0, err
}

// release frees one in-flight slot, preferring to hand it straight to a
// queued waiter (oldest of the best class), evicting stale heads per
// the CoDel law on the way.
func (c *Controller) release(tenant uint64) {
	c.mu.Lock()
	if t, ok := c.tenants[tenant]; ok && t.inflight > 0 {
		t.inflight--
	}
	if !c.grantLocked() {
		c.inflight--
		c.inflG.Set(int64(c.inflight))
	}
	c.mu.Unlock()
}

// grantLocked hands the freed slot to a waiter, returning false when
// the queue is empty (the slot goes back to the pool). Heads whose
// sojourn violates the CoDel law are evicted and the scan continues.
// Only a sojourn needs the time, so an empty queue reads no clock.
func (c *Controller) grantLocked() bool {
	var now time.Time
	if c.queued > 0 {
		now = c.now()
	}
	for {
		var w *waiter
		for cl := Class(0); cl < ClassCount; cl++ {
			if front := c.queues[cl].Front(); front != nil {
				w = front.Value.(*waiter)
				break
			}
		}
		if w == nil {
			// Empty queue: standing down resets the CoDel state.
			c.firstAbove = time.Time{}
			c.dropping = false
			c.dropCount = 0
			return false
		}
		c.queues[w.class].Remove(w.elem)
		c.queued--
		c.queueG.Set(int64(c.queued))
		w.done = true

		sojourn := now.Sub(w.enq)
		if c.codelDropLocked(sojourn, now) {
			c.evicted.Inc()
			w.grant <- c.rejectLocked(w.class, w.tenant, "codel-evict")
			continue
		}
		c.waitHist.Observe(float64(sojourn.Microseconds()))
		c.tenantLocked(w.tenant, now).inflight++
		c.admitted[w.class].Inc()
		w.grant <- nil // slot transfers: c.inflight is unchanged
		return true
	}
}

// codelDropLocked is the CoDel-style control law, evaluated on each
// dequeue: once the head sojourn has stayed above QueueTarget for a
// full QueueInterval the controller enters dropping state and evicts at
// an accelerating rate — the k-th eviction after interval/sqrt(k) — un-
// til a head dequeues below target, which resets everything. Keeps the
// standing queue near the target sojourn instead of letting it sit at
// MaxWait.
func (c *Controller) codelDropLocked(sojourn time.Duration, now time.Time) bool {
	if sojourn < c.cfg.QueueTarget {
		c.firstAbove = time.Time{}
		c.dropping = false
		c.dropCount = 0
		return false
	}
	if c.firstAbove.IsZero() {
		c.firstAbove = now.Add(c.cfg.QueueInterval)
		return false
	}
	if now.Before(c.firstAbove) {
		return false
	}
	if !c.dropping {
		c.dropping = true
		c.dropCount = 1
		c.dropNext = now.Add(time.Duration(float64(c.cfg.QueueInterval) / math.Sqrt(float64(c.dropCount))))
		return true
	}
	if now.After(c.dropNext) {
		c.dropCount++
		c.dropNext = now.Add(time.Duration(float64(c.cfg.QueueInterval) / math.Sqrt(float64(c.dropCount))))
		return true
	}
	return false
}

// Status is one coherent snapshot of the gate for /snapshot and nxtop.
type Status struct {
	Level       string            `json:"level"`
	Pressure    float64           `json:"pressure"`
	Inflight    int               `json:"inflight"`
	MaxInflight int               `json:"max_inflight"`
	Queued      int               `json:"queued"`
	Admitted    [ClassCount]int64 `json:"admitted"` // indexed Interactive, Batch, Background
	Shed        [ClassCount]int64 `json:"shed"`
	Degraded    [ClassCount]int64 `json:"degraded"`
	Evicted     int64             `json:"evicted"`
}

// StatusNow samples the gate. Nil-safe (zero Status).
func (c *Controller) StatusNow() Status {
	if c == nil {
		return Status{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		Level:       c.levelLocked().String(),
		Pressure:    c.pressure,
		Inflight:    c.inflight,
		MaxInflight: c.cfg.MaxInflight,
		Queued:      c.queued,
		Evicted:     c.evicted.Value(),
	}
	for cl := Class(0); cl < ClassCount; cl++ {
		s.Admitted[cl] = c.admitted[cl].Value()
		s.Shed[cl] = c.shed[cl].Value()
		s.Degraded[cl] = c.degraded[cl].Value()
	}
	return s
}

// TenantStatus is one tenant's quota standing at the gate.
type TenantStatus struct {
	ID       uint64 `json:"id"`
	Weight   int    `json:"weight"`
	Inflight int    `json:"inflight"`
	// Registered marks tenants declared via RegisterTenant (exempt from
	// the idle sweep); auto-registered tenants show false.
	Registered bool `json:"registered,omitempty"`
	// Active marks tenants currently counting toward the quota
	// denominator (in-flight work or seen within the active window).
	Active bool `json:"active"`
	// Share is the tenant's weight fraction of the active weight — the
	// capacity fraction quotas guarantee it under brownout. 0 for
	// inactive tenants.
	Share float64 `json:"share"`
}

// TenantsNow samples every tenant the gate currently tracks, sorted by
// ID. Nil-safe (nil slice).
func (c *Controller) TenantsNow() []TenantStatus {
	if c == nil {
		return nil
	}
	now := c.now()
	c.mu.Lock()
	aw := c.activeWeightLocked(now)
	out := make([]TenantStatus, 0, len(c.tenants))
	for id, t := range c.tenants {
		ts := TenantStatus{
			ID:         id,
			Weight:     t.weight,
			Inflight:   t.inflight,
			Registered: t.registered,
			Active:     t.inflight > 0 || now.Sub(t.lastSeen) <= tenantActiveWindow,
		}
		if ts.Active && aw > 0 {
			ts.Share = float64(t.weight) / float64(aw)
		}
		out = append(out, ts)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Config returns the active (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }
