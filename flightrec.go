package nxzip

// flightrec.go wires the always-on flight recorder (internal/flightrec)
// into the root API. The recorder rides the same zero-cost hook
// discipline as tracing and events: with EnableFlightRecorder never
// called, the request path performs one atomic load and a nil check;
// with it called, every root-level request mints a RequestID, stamps it
// through dispatch (CRB → span → events → scoreboard), records its spans
// into the pooled request's own span log, and completes a fixed-size
// digest into the recorder's ring together with those spans, of which
// the recorder copies only the interesting requests'.

import (
	"fmt"
	"sync/atomic"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/flightrec"
	"nxzip/internal/telemetry"
)

// reqSeq mints RequestIDs process-wide, so IDs stay unique even across
// nodes (the bundle reader keys on them).
// ID 0 is reserved as "no request context".
var reqSeq atomic.Uint64

// nextReq returns a fresh nonzero RequestID.
func nextReq() uint64 { return reqSeq.Add(1) }

// EnableFlightRecorder attaches a flight recorder to the node: every
// request from every view digests into a bounded ring, interesting
// requests (errored, degraded, re-dispatched, slow vs the rolling p99)
// retain their full spans, and postmortem bundles land in dir when
// triggered (dir "" keeps the recorder memory-only). The recorder
// installs no tracer: requests record their spans into storage of their
// own and hand them over when they finish, so a StartTrace sink and the
// recorder each see every span, whichever was enabled first.
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
		// Lost the race to a concurrent enable: ours was never attached.
		rec.Close()
		return n.rec.Load()
	}
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

// digest finishes one root-level request's observation: it bumps the
// view's tenant accounting plane (always on — see tenant.go) and, when the
// request started under a recorder, completes its digest and spans into
// it. The Digest is stack-built and copied by Complete, and the spans are
// the request's own, so the call allocates nothing.
func (r *request) digest(device string, outcome telemetry.Outcome) {
	a, m := r.a, &r.m
	cls := admission.Class(a.class.Load())
	queueUS := float64(m.QueueWait) / float64(time.Microsecond)
	totalUS := float64(time.Since(r.start)) / float64(time.Microsecond)
	if tp := a.tplane; tp != nil {
		tp.observe(cls, outcome, totalUS, queueUS, r.id)
	}
	if r.rec == nil {
		return
	}
	d := telemetry.Digest{
		Req:          r.id,
		Op:           r.op.name,
		Codec:        r.op.codecLabel(),
		Device:       device,
		Tenant:       a.nctx.ID(),
		Priority:     cls.String(),
		QueueUS:      queueUS,
		TotalUS:      totalUS,
		InBytes:      m.InBytes,
		OutBytes:     m.OutBytes,
		EngineCycles: m.DeviceCycles,
		Attempts:     r.attempts,
		Outcome:      outcome,
	}
	r.rec.Complete(&d, r.log.Spans())
}

// reqError stamps the RequestID onto a terminal error so log lines
// correlate with the request's digest, spans and events.
func reqError(req uint64, err error) error {
	if req == 0 || err == nil {
		return err
	}
	return fmt.Errorf("req %d: %w", req, err)
}
