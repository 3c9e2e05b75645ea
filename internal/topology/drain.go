package topology

import (
	"errors"
	"fmt"
	"time"

	"nxzip/internal/telemetry"
)

// Graceful drain: a draining device stops receiving new work — admit
// refuses it exactly as it refuses a quarantined device with no probe
// due, so every pick path (pickIndexFor, PickStickyAvoid, the batch
// router) routes around it for free — while in-flight CRBs run to
// completion. Unlike quarantine, drain is an operator decision, not a
// health verdict: there are no probes, no readmission, and the device
// only rejoins on an explicit Undrain. Drain and quarantine are
// independent bits — a device can be both (chaos kills racing a drain),
// and clearing one does not clear the other.

// ErrDrainTimeout is returned when a drain's quiesce wait expires with
// work still in flight; the device stays draining (admission remains
// stopped) so the caller can wait again or undrain.
var ErrDrainTimeout = errors.New("topology: drain timed out with requests still in flight")

// StartDrain stops admission to device i. It reports whether this call
// initiated the drain (false: already draining).
func (n *Node) StartDrain(i int) bool {
	h := &n.health[i]
	h.mu.Lock()
	if h.draining {
		h.mu.Unlock()
		return false
	}
	h.draining = true
	wasAccepting := !h.quarantined
	h.mu.Unlock()
	n.drains[i].Inc()
	if wasAccepting {
		n.acceptingGauge.Add(-1)
	}
	n.bus.Load().Publish(telemetry.Event{Type: telemetry.EventDrain, Device: n.shape.Devices[i].Label,
		Detail: "drain started: admission stopped, waiting for in-flight requests"})
	return true
}

// Undrain resumes admission to device i (no-op when not draining).
func (n *Node) Undrain(i int) {
	h := &n.health[i]
	h.mu.Lock()
	if !h.draining {
		h.mu.Unlock()
		return
	}
	h.draining = false
	accepting := !h.quarantined
	h.mu.Unlock()
	if accepting {
		n.acceptingGauge.Add(1)
	}
	n.bus.Load().Publish(telemetry.Event{Type: telemetry.EventDrain, Device: n.shape.Devices[i].Label,
		Detail: "undrained: admission resumed"})
}

// Draining reports whether device i is draining.
func (n *Node) Draining(i int) bool {
	h := &n.health[i]
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.draining
}

// Accepting reports whether device i is currently eligible for new
// work: not draining and not quarantined (probe admissions aside).
func (n *Node) Accepting(i int) bool {
	h := &n.health[i]
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.draining && !h.quarantined
}

// quiescePoll is how often Quiesce re-checks a draining device's load.
const quiescePoll = 200 * time.Microsecond

// Quiesce blocks until device i has no in-flight dispatches and an
// empty receive FIFO, or the timeout expires (ErrDrainTimeout; the
// drain stays active). Call after StartDrain — with admission stopped,
// Load is monotone non-increasing apart from probe traffic, which
// StartDrain does not admit.
func (n *Node) Quiesce(i int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for n.Load(i) > 0 {
		if time.Now().After(deadline) {
			n.bus.Load().Publish(telemetry.Event{Type: telemetry.EventDrain, Device: n.shape.Devices[i].Label,
				Detail: fmt.Sprintf("drain timed out after %v with load %d still in flight", timeout, n.Load(i))})
			return ErrDrainTimeout
		}
		time.Sleep(quiescePoll)
	}
	n.bus.Load().Publish(telemetry.Event{Type: telemetry.EventDrain, Device: n.shape.Devices[i].Label,
		Detail: "drain complete: device quiesced with zero in-flight requests"})
	return nil
}
