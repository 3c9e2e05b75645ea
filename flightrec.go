package nxzip

// flightrec.go wires the always-on flight recorder (internal/flightrec)
// into the root API. The recorder rides the same zero-cost hook
// discipline as tracing and events: with EnableFlightRecorder never
// called, the request path performs one atomic load and a nil check;
// with it called, every root-level request mints a RequestID, stamps it
// through dispatch (CRB → span → events → scoreboard), and completes a
// fixed-size digest into the recorder's ring, while full spans are
// tail-sampled for the interesting requests only.

import (
	"fmt"
	"sync/atomic"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/flightrec"
	"nxzip/internal/telemetry"
)

// reqSeq mints RequestIDs process-wide, so IDs stay unique even across
// nodes (the recorder's pending table and the bundle reader key on them).
// ID 0 is reserved as "no request context".
var reqSeq atomic.Uint64

// nextReq returns a fresh nonzero RequestID.
func nextReq() uint64 { return reqSeq.Add(1) }

// EnableFlightRecorder attaches a flight recorder to the node: every
// request from every view digests into a bounded ring, interesting
// requests (errored, degraded, re-dispatched, slow vs the rolling p99)
// retain their full spans, and postmortem bundles land in dir when
// triggered (dir "" keeps the recorder memory-only). The recorder's
// tracer is installed node-wide, so StartTrace and
// EnableFlightRecorder are mutually exclusive — last installer wins.
// Idempotent: repeated calls return the same recorder.
func (n *Node) EnableFlightRecorder(dir string) *flightrec.Recorder {
	if rec := n.rec.Load(); rec != nil {
		return rec
	}
	bus := n.EnableEvents()
	rec := flightrec.New(dir)
	rec.SetSources(flightrec.Sources{
		Snapshot: n.Metrics,
		Devices:  n.DeviceStatuses,
		Events:   bus.Tail,
		Config: func() *flightrec.Config {
			labels := make([]string, n.topo.Size())
			for i := range labels {
				labels[i] = n.topo.Label(i)
			}
			return &flightrec.Config{
				Name:      n.cfg.Shape.Name,
				Devices:   n.topo.Size(),
				Dispatch:  n.cfg.Dispatch,
				TableMode: int(n.cfg.TableMode),
				Labels:    labels,
			}
		},
		Health: func() *flightrec.Health {
			return &flightrec.Health{HealthyDevices: n.HealthyDevices(), TotalDevices: n.Devices()}
		},
	})
	if !n.rec.CompareAndSwap(nil, rec) {
		// Lost the race to a concurrent enable: the winner's tracer is (or
		// will be) installed; ours was never attached.
		rec.Close()
		return n.rec.Load()
	}
	n.topo.InstallTracer(rec.Tracer())
	return rec
}

// FlightRecorder returns the node's flight recorder, or nil before
// EnableFlightRecorder.
func (n *Node) FlightRecorder() *flightrec.Recorder { return n.rec.Load() }

// EnableFlightRecorder enables the flight recorder on the accelerator's
// underlying node (views share the node's recorder). Idempotent.
func (a *Accelerator) EnableFlightRecorder(dir string) *flightrec.Recorder {
	return a.root.EnableFlightRecorder(dir)
}

// FlightRecorder returns the underlying node's flight recorder, or nil
// before EnableFlightRecorder.
func (a *Accelerator) FlightRecorder() *flightrec.Recorder { return a.root.rec.Load() }

// recorder is the hot-path accessor: one atomic load, nil when the
// recorder is not enabled.
func (a *Accelerator) recorder() *flightrec.Recorder { return a.root.rec.Load() }

// completeDigest finishes one root-level request: it bumps the view's
// tenant accounting plane (always on — see tenant.go) and records a
// digest into the recorder when one is attached. The Digest is
// stack-built and copied by Complete, so the call allocates nothing.
func (a *Accelerator) completeDigest(rec *flightrec.Recorder, req uint64, op, codec, device string, m *Metrics, start time.Time, attempts int, outcome telemetry.Outcome) {
	cls := admission.Class(a.class.Load())
	queueUS := float64(m.QueueWait) / float64(time.Microsecond)
	totalUS := float64(time.Since(start)) / float64(time.Microsecond)
	if tp := a.tplane; tp != nil {
		tp.observe(cls, outcome, totalUS, queueUS, req)
	}
	if rec == nil {
		return
	}
	d := telemetry.Digest{
		Req:          req,
		Op:           op,
		Codec:        codec,
		Device:       device,
		Tenant:       a.nctx.ID(),
		Priority:     cls.String(),
		QueueUS:      queueUS,
		TotalUS:      totalUS,
		InBytes:      m.InBytes,
		OutBytes:     m.OutBytes,
		EngineCycles: m.DeviceCycles,
		Attempts:     attempts,
		Outcome:      outcome,
	}
	rec.Complete(&d)
}

// reqError stamps the RequestID onto a terminal error so log lines
// correlate with the request's digest, spans and events.
func reqError(req uint64, err error) error {
	if req == 0 || err == nil {
		return err
	}
	return fmt.Errorf("req %d: %w", req, err)
}
