package telemetry

// event.go is what a device and a node report besides their metrics:
// the typed control-plane events (quarantine, readmission, probes,
// failover, software fallback, credit leaks, engine hangs, sheds,
// drains, burn-rate alerts), the bus that fans them out, and one
// device's operational status. Every layer that publishes (nx,
// topology, admission, the root package) already imports telemetry, so
// none of them depends on the exposition server in internal/obs. All
// publish paths are nil-receiver safe: with no bus attached an emission
// site costs one nil check.

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventType classifies a control-plane event.
type EventType string

// The event vocabulary. Data-plane completions are not events — they
// are counters; events mark the rarer transitions that change how the
// node serves traffic.
const (
	// EventQuarantine: the health scoreboard opened a device's breaker.
	EventQuarantine EventType = "quarantine"
	// EventReadmit: a quarantined device passed its probes and rejoined.
	EventReadmit EventType = "readmit"
	// EventProbe: a live request was admitted to a quarantined device as
	// a half-open probe.
	EventProbe EventType = "probe"
	// EventFailover: a request failed on one device and was re-dispatched
	// to another.
	EventFailover EventType = "failover"
	// EventFallback: a request was completed by the software codec
	// because no healthy device could serve it (Metrics.Degraded).
	EventFallback EventType = "fallback"
	// EventCreditLeak: a completion's send-window credit was swallowed
	// (injected or modelled leak) — enough of these wedge the window.
	EventCreditLeak EventType = "credit-leak"
	// EventEngineHang: an engine dropped a dequeued request without
	// writing its CSB; the watchdog reclaimed the credit.
	EventEngineHang EventType = "engine-hang"
	// EventShed: the admission gate refused a request under overload
	// (brownout, quota, queue overflow or CoDel eviction).
	EventShed EventType = "shed"
	// EventDrain: a device entered or completed graceful drain (Detail
	// distinguishes the phases).
	EventDrain EventType = "drain"
	// EventBurnRate: a multi-window burn-rate alert changed state — an
	// SLO error budget is burning fast enough to exhaust within its
	// window (or stopped). Tenant carries the top offender when one
	// stands out; Detail carries the windows, rates and budget.
	EventBurnRate EventType = "burn-rate"
)

// Event is one typed record on the bus. Device carries the topology
// label of the device involved ("chip0", "drawer1/cp2"); empty when the
// event is node-scoped.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Type EventType `json:"type"`
	// Req links the event to the root-level request that triggered it
	// (the CRB.ReqID minted by the public API); 0 for events with no
	// originating request (periodic probes, sampler-driven transitions).
	Req uint64 `json:"req,omitempty"`
	// Tenant is the view identity the event concerns: the refused
	// request's tenant on EventShed, the top-offending tenant on
	// EventBurnRate. 0 for tenant-blind events.
	Tenant uint64 `json:"tenant,omitempty"`
	Device string `json:"device,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// tailLen bounds the ring of recent events the bus keeps for /snapshot
// and late subscribers.
const tailLen = 256

// Bus fans events out to bounded subscriber channels. Publish never
// blocks: a subscriber that cannot keep up loses events and its drop
// counter advances, so slow consumers degrade themselves, not the
// publishing request path. All methods are nil-receiver safe.
type Bus struct {
	mu   sync.Mutex
	subs []*Subscription
	tail Ring[Event] // the most recent events
	seq  atomic.Uint64

	published atomic.Int64
	dropped   atomic.Int64
}

// NewBus builds an empty bus.
func NewBus() *Bus { return &Bus{tail: NewRing[Event](tailLen)} }

// Publish stamps the event (sequence number, and time if unset) and
// delivers it to every subscriber that has channel capacity. Safe for
// concurrent use; a nil bus ignores the event.
func (b *Bus) Publish(e Event) {
	if b == nil {
		return
	}
	e.Seq = b.seq.Add(1)
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	b.published.Add(1)
	b.mu.Lock()
	b.tail.Put(e)
	for _, s := range b.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// Published returns the number of events published over the bus's
// lifetime (0 on a nil bus).
func (b *Bus) Published() int64 {
	if b == nil {
		return 0
	}
	return b.published.Load()
}

// Dropped returns the total events lost across all subscribers — a
// monotone counter, never reset.
func (b *Bus) Dropped() int64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Tail returns up to n of the most recent events, oldest first. A nil
// bus returns nil.
func (b *Bus) Tail(n int) []Event {
	if b == nil || n <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tail.Last(n)
}

// Subscribe registers a bounded subscriber channel (buffer clamps to at
// least 1). Close the subscription to stop delivery.
func (b *Bus) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription{bus: b, ch: make(chan Event, buffer)}
	if b != nil {
		b.mu.Lock()
		b.subs = append(b.subs, s)
		b.mu.Unlock()
	}
	return s
}

// Subscription is one bounded consumer of the bus.
type Subscription struct {
	bus     *Bus
	ch      chan Event
	dropped atomic.Int64
	closed  atomic.Bool
}

// C returns the event channel. It is closed by Subscription.Close, not
// by the bus.
func (s *Subscription) C() <-chan Event { return s.ch }

// Dropped returns how many events this subscriber lost to a full
// channel — monotone, never reset.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Close unregisters the subscription and closes its channel. Idempotent.
func (s *Subscription) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	if s.bus != nil {
		s.bus.mu.Lock()
		for i, sub := range s.bus.subs {
			if sub == s {
				s.bus.subs = append(s.bus.subs[:i], s.bus.subs[i+1:]...)
				break
			}
		}
		// Publishers hold the bus lock while sending, so closing under it
		// cannot race a send on the closed channel.
		close(s.ch)
		s.bus.mu.Unlock()
		return
	}
	close(s.ch)
}

// EventLog drains a subscription to a writer as JSON lines — the
// event-log sink behind nxzip's -events flag. Build with NewEventLog;
// Close flushes nothing (each event is written as it arrives) but
// reports how many events the subscription dropped.
type EventLog struct {
	sub  *Subscription
	done chan struct{}
	err  error
}

// NewEventLog subscribes to bus with the given channel buffer and
// starts a goroutine writing one JSON object per line to w.
func NewEventLog(bus *Bus, w io.Writer, buffer int) *EventLog {
	l := &EventLog{sub: bus.Subscribe(buffer), done: make(chan struct{})}
	enc := json.NewEncoder(w)
	go func() {
		defer close(l.done)
		for e := range l.sub.C() {
			if err := enc.Encode(e); err != nil {
				l.err = err
				return
			}
		}
	}()
	return l
}

// Close stops the log and returns the first write error, if any, along
// with the number of events dropped while the log was attached.
func (l *EventLog) Close() (dropped int64, err error) {
	l.sub.Close()
	<-l.done
	return l.sub.Dropped(), l.err
}

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
