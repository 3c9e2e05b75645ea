package main

import (
	"encoding/json"
	"os"
	"time"
)

// trace.go records spans from outside the program: one request span per
// root call and, under the same request id, one child span per layer
// call the harness replays. Spans stay in memory and are written at exit
// as Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev). Every
// ledger row is an aggregate over the sweep's spans, so the trace file
// and the per-layer numbers cannot disagree.

// span is one timed call. Units is what the call processed in the
// metric's denominator (bytes, symbols, tables, CRBs); Cycles carries
// the modelled cycles where the layer has a model clock.
type span struct {
	Req    uint64
	Name   string
	Start  time.Duration // since the tracer's epoch
	Dur    time.Duration
	Units  float64
	Cycles int64
}

// agg is the running total of every span of one name.
type agg struct {
	calls  int
	dur    time.Duration
	units  float64
	cycles int64
}

// perCall is the mean wall time of one call, in nanoseconds.
func (a agg) perCall() float64 { return float64(a.dur) / float64(a.calls) }

// perUnit is the wall time per processed unit, in nanoseconds.
func (a agg) perUnit() float64 { return float64(a.dur) / a.units }

// keepSpans bounds the spans retained for the trace file; the
// aggregates keep counting past it.
const keepSpans = 400_000

type tracer struct {
	epoch time.Time
	spans []span
	aggs  map[string]*agg
	req   uint64
	// counting is set while the sweep runs: the ledger's rows aggregate
	// the sweep's spans only, where every probe visits the same samples
	// equally often, so that nested entry points subtract like from like.
	// Replay spans under request ids feed the trace file and the
	// coverage figure.
	counting bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), aggs: map[string]*agg{}}
}

// nextReq opens a new request id.
func (t *tracer) nextReq() uint64 {
	t.req++
	return t.req
}

// record adds one finished span.
func (t *tracer) record(req uint64, name string, start, end time.Time, units float64, cycles int64) {
	d := end.Sub(start)
	if t.counting {
		a := t.aggs[name]
		if a == nil {
			a = &agg{}
			t.aggs[name] = a
		}
		a.calls++
		a.dur += d
		a.units += units
		a.cycles += cycles
	}
	// Request spans are recorded after their children, so they are kept
	// past the cap: a retained child never loses its request.
	if len(t.spans) < keepSpans || name == requestSpan {
		t.spans = append(t.spans, span{req, name, start.Sub(t.epoch), d, units, cycles})
	}
}

// get returns the aggregate of a span name (zero when never recorded).
func (t *tracer) get(name string) agg {
	if a := t.aggs[name]; a != nil {
		return *a
	}
	return agg{}
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// requestSpan is the name of the span that brackets one request: the
// root call and every layer call replayed under its id.
const requestSpan = "request"

// writeFile writes the retained spans as a Chrome trace document.
func (t *tracer) writeFile(path string) error {
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		cat := "layer"
		if s.Name == requestSpan {
			cat = "request"
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.Dur) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]any{"req": s.Req, "units": s.Units, "model_cycles": s.Cycles},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
