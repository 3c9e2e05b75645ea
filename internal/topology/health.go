package topology

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nxzip/internal/faultinject"
	"nxzip/internal/nx"
	"nxzip/internal/telemetry"
)

// ErrNoHealthyDevice is returned by the Avail picks when every device of the
// node is quarantined and none is due for a probe — the signal the
// failover layer uses to fall back to the software path.
var ErrNoHealthyDevice = errors.New("topology: no healthy device available")

// ErrNoCapableDevice is returned by the codec-aware picks when no
// device of the node — healthy or quarantined — advertises the codec a
// request requires: the pool has the wrong hardware, so failover
// re-dispatch is pointless and the caller degrades to software
// immediately.
var ErrNoCapableDevice = errors.New("topology: no device supports the requested codec")

// The health scoreboard's policy: when a device is quarantined and how it
// earns its way back.
const (
	// failureThreshold is the number of consecutive device-local failures
	// (hangs, CRC flakes, fault storms, busy/deadline exhaustion) that
	// quarantines a device. ErrDeviceOffline quarantines immediately.
	failureThreshold = 3
	// probeInterval is the minimum wait between probe admissions of a
	// quarantined device: once it elapses, the next pick routes a single
	// live request to the device as a probe (circuit-breaker half-open).
	probeInterval = 5 * time.Millisecond
	// probeSuccesses is the number of consecutive successful probes
	// required to readmit a quarantined device.
	probeSuccesses = 1
)

// devHealth is one device's scoreboard entry — a small circuit breaker:
// healthy (closed) until failureThreshold consecutive failures, then
// quarantined (open) with probe admissions every probeInterval
// (half-open) until probeSuccesses consecutive successes readmit it.
type devHealth struct {
	mu          sync.Mutex
	quarantined bool
	consecFails int
	probeOK     int
	lastProbe   time.Time
	// draining is the graceful-drain bit (drain.go): an operator
	// decision orthogonal to the breaker — admit refuses the device, but
	// there are no probes and only Undrain clears it.
	draining bool
}

// countsAgainstHealth reports whether a submission error indicts the
// device (rather than the request): transient device-local failures and
// timeouts feed the scoreboard; data-plane completions and caller
// cancellation do not.
func countsAgainstHealth(err error) bool {
	return nx.Retryable(err) || errors.Is(err, nx.ErrDeadlineExceeded)
}

// admit reports whether device i may receive a request right now:
// healthy devices always, quarantined devices only when a probe is due
// (in which case the request doubles as the probe), draining devices
// never — a drain must quiesce, so not even probes are admitted.
func (n *Node) admit(i int) bool {
	h := &n.health[i]
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.draining {
		return false
	}
	if !h.quarantined {
		return true
	}
	if time.Since(h.lastProbe) >= probeInterval {
		h.lastProbe = time.Now()
		n.probes[i].Inc()
		n.bus.Load().Publish(telemetry.Event{Type: telemetry.EventProbe, Device: n.shape.Devices[i].Label,
			Detail: "live request admitted to quarantined device as probe"})
		return true
	}
	return false
}

// ReportResultReq feeds one submission outcome for device i into the
// scoreboard. A nil error is a success; device-local failures count
// toward quarantine and ErrDeviceOffline quarantines immediately. req is
// the root RequestID of the submission, stamped onto any
// quarantine/readmission event this outcome provokes so the incident
// links back to the request.
func (n *Node) ReportResultReq(i int, err error, req uint64) {
	if i < 0 || i >= len(n.health) {
		return
	}
	h := &n.health[i]
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case err == nil:
		h.consecFails = 0
		if h.quarantined {
			h.probeOK++
			if h.probeOK >= probeSuccesses {
				h.quarantined = false
				h.probeOK = 0
				n.readmissions[i].Inc()
				n.healthyGauge.Add(1)
				if !h.draining {
					n.acceptingGauge.Add(1)
				}
				n.bus.Load().Publish(telemetry.Event{Type: telemetry.EventReadmit, Device: n.shape.Devices[i].Label,
					Req:    req,
					Detail: fmt.Sprintf("readmitted after %d successful probes", probeSuccesses)})
			}
		}
	case countsAgainstHealth(err):
		h.consecFails++
		h.probeOK = 0
		if errors.Is(err, nx.ErrDeviceOffline) && h.consecFails < failureThreshold {
			h.consecFails = failureThreshold
		}
		if !h.quarantined && h.consecFails >= failureThreshold {
			h.quarantined = true
			h.lastProbe = time.Now()
			n.quarantines[i].Inc()
			n.healthyGauge.Add(-1)
			if !h.draining {
				n.acceptingGauge.Add(-1)
			}
			n.bus.Load().Publish(telemetry.Event{Type: telemetry.EventQuarantine, Device: n.shape.Devices[i].Label,
				Req:    req,
				Detail: fmt.Sprintf("after %d consecutive failures: %v", h.consecFails, err)})
		} else if h.quarantined {
			// A failed probe restarts the interval.
			h.lastProbe = time.Now()
		}
	}
}

// Quarantined reports whether device i is currently quarantined.
func (n *Node) Quarantined(i int) bool {
	h := &n.health[i]
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quarantined
}

// HealthyCount returns the number of non-quarantined devices.
func (n *Node) HealthyCount() int {
	count := 0
	for i := range n.health {
		if !n.Quarantined(i) {
			count++
		}
	}
	return count
}

// InstallInjectors builds one fault injector per device — seeds derived
// deterministically from seed so runs replay — installs them across
// every device layer, and returns them so the chaos harness can flip
// profiles or offline individual devices mid-run.
func (n *Node) InstallInjectors(seed int64, p faultinject.Profile) []*faultinject.Injector {
	injs := make([]*faultinject.Injector, len(n.devs))
	for i, d := range n.devs {
		injs[i] = faultinject.New(seed+int64(i)*0x5DEECE66D, p)
		d.SetInjector(injs[i])
	}
	return injs
}
