// Package admission is the overload-protection layer between the root
// API and topology dispatch. The paper's credit/paste flow control (C4,
// C8) pushes backpressure to the requester — a paste with no credit
// bounces — but backpressure alone degrades badly past saturation:
// every caller spins in paste-reject backoff, wasting cycles on work
// that will be too late by the time it completes, and the tail grows
// without bound. This package makes the degradation deliberate:
//
//   - an admission gate samples per-device FIFO occupancy and
//     quarantine state into a smoothed pressure signal, and refuses work
//     *before* it burns engine cycles;
//   - requests carry a priority class (interactive / batch /
//     background) and a tenant identity with a weighted quota, so one
//     context cannot starve the node under pressure;
//   - a bounded, deadline-aware pending queue absorbs bursts for the
//     classes worth waiting for, with CoDel-style eviction so stale
//     requests are shed instead of queued to death;
//   - a brownout ladder degrades in steps — deny background work first,
//     route batch work to the software fallback next, and only then
//     reject with a typed ErrOverloaded carrying a retry-after hint.
//
// The controller is pull-free: there is no background goroutine. Every
// Admit call advances the pressure estimate (rate-limited), consults
// the ladder, and either takes an in-flight slot, waits on the pending
// queue, re-routes to the fallback, or rejects. Release hands freed
// slots to queued waiters in priority order.
package admission

import (
	"errors"
	"fmt"
	"time"

	"nxzip/internal/telemetry"
)

// Class is a request's priority class. Lower values are more
// latency-sensitive and are shed last.
type Class int

const (
	// Interactive is user-facing work: never brown-routed to software,
	// queued (bounded) when the node saturates, shed only when the queue
	// itself overflows or CoDel evicts it.
	Interactive Class = iota
	// Batch is throughput work that tolerates the software path: under
	// brownout it degrades to the fallback codec before being rejected.
	Batch
	// Background is best-effort work (scrubbers, re-compressors): the
	// first class denied when pressure rises.
	Background

	// ClassCount sizes per-class arrays.
	ClassCount
)

var classNames = [...]string{"interactive", "batch", "background"}

func (c Class) String() string {
	if c >= 0 && int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ErrOverloaded is the typed rejection every shed decision wraps:
// errors.Is(err, ErrOverloaded) identifies load shedding regardless of
// which rung of the ladder produced it. Shed errors are terminal — not
// retryable on another device (every device sits behind the same gate)
// and not a health strike against any device.
var ErrOverloaded = errors.New("admission: node overloaded")

// OverloadError is the concrete shed error: which class was refused,
// for which tenant, why, and how long the caller should wait before
// retrying (the retry-after hint an HTTP front end maps to Retry-After).
type OverloadError struct {
	Class Class
	// Tenant is the refused request's view identity (0 when the caller
	// presented no tenant), so shed errors correlate with the
	// tenant-labeled accounting plane and per-tenant quotas.
	Tenant     uint64
	Reason     string // "brownout", "quota", "queue-full", "codel-evict", "queue-timeout", "deadline", "draining"
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	if e.Tenant != 0 {
		return fmt.Sprintf("admission: node overloaded: %s request shed (%s, tenant %s), retry after %v",
			e.Class, e.Reason, telemetry.TenantLabel(e.Tenant), e.RetryAfter)
	}
	return fmt.Sprintf("admission: node overloaded: %s request shed (%s), retry after %v",
		e.Class, e.Reason, e.RetryAfter)
}

// Unwrap makes every OverloadError errors.Is-able as ErrOverloaded.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// RetryAfter extracts the retry-after hint from a shed error (0 when
// err is not an overload rejection).
func RetryAfter(err error) time.Duration {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// Level is a rung of the brownout ladder, derived from the pressure
// signal on every admission decision.
type Level int

const (
	// LevelNormal: everything admits.
	LevelNormal Level = iota
	// LevelShedBackground: background work is rejected.
	LevelShedBackground
	// LevelShedBatch: batch work re-routes to the software fallback;
	// background stays rejected.
	LevelShedBatch
	// LevelSaturated: the in-flight ceiling is hit — interactive work
	// queues (bounded, CoDel-policed); everything else is shed.
	LevelSaturated
)

var levelNames = [...]string{"normal", "shed-background", "shed-batch", "saturated"}

func (l Level) String() string {
	if l >= 0 && int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Config tunes the controller. The zero value means "use the default"
// for every field (withDefaults fills them in), so callers set only
// what they care about.
type Config struct {
	// MaxInflight is the node-wide concurrency ceiling the gate
	// enforces — admitted requests holding tickets. 0 lets the caller
	// derive it from topology capacity (the root wires devices × a
	// fraction of the FIFO depth).
	MaxInflight int

	// QueueLimit bounds the pending queue of saturated-mode waiters.
	// Beyond it, even interactive work is shed (queue-full).
	QueueLimit int
	// QueueTarget is the CoDel target sojourn: when the minimum queue
	// wait over QueueInterval exceeds it, the controller starts evicting
	// waiters at an accelerating rate (the sqrt control law).
	QueueTarget time.Duration
	// QueueInterval is the CoDel observation interval.
	QueueInterval time.Duration
	// MaxWait caps how long any waiter sits in the pending queue before
	// being shed (queue-timeout) — the outer bound a request's own
	// Deadline can only tighten.
	MaxWait time.Duration

	// ShedBackground / ShedBatch are the pressure thresholds of the
	// brownout ladder (fractions of capacity; pressure can exceed 1).
	ShedBackground float64
	ShedBatch      float64

	// PressureAlpha is the EWMA weight of a fresh load sample
	// (0 < alpha <= 1); PressurePeriod rate-limits probe sampling so a
	// hot admission path does not scan every device FIFO per request.
	PressureAlpha  float64
	PressurePeriod time.Duration
}

// DefaultConfig returns the shipped overload policy.
func DefaultConfig() Config {
	return Config{
		QueueLimit:     256,
		QueueTarget:    5 * time.Millisecond,
		QueueInterval:  100 * time.Millisecond,
		MaxWait:        250 * time.Millisecond,
		ShedBackground: 0.75,
		ShedBatch:      0.90,
		PressureAlpha:  0.3,
		PressurePeriod: 200 * time.Microsecond,
	}
}

// withDefaults fills zero fields from DefaultConfig (MaxInflight stays
// 0 — the owner derives it from capacity).
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.QueueLimit <= 0 {
		c.QueueLimit = def.QueueLimit
	}
	if c.QueueTarget <= 0 {
		c.QueueTarget = def.QueueTarget
	}
	if c.QueueInterval <= 0 {
		c.QueueInterval = def.QueueInterval
	}
	if c.MaxWait <= 0 {
		c.MaxWait = def.MaxWait
	}
	if c.ShedBackground <= 0 {
		c.ShedBackground = def.ShedBackground
	}
	if c.ShedBatch <= 0 {
		c.ShedBatch = def.ShedBatch
	}
	if c.ShedBatch < c.ShedBackground {
		c.ShedBatch = c.ShedBackground
	}
	if c.PressureAlpha <= 0 || c.PressureAlpha > 1 {
		c.PressureAlpha = def.PressureAlpha
	}
	if c.PressurePeriod <= 0 {
		c.PressurePeriod = def.PressurePeriod
	}
	return c
}
