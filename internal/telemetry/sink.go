package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Sink receives finished spans. Implementations must be safe for
// concurrent Emit calls (finished requests complete on arbitrary
// goroutines). Emit after Close is a no-op.
type Sink interface {
	Emit(*Span)
	Close() error
}

// CollectSink buffers spans in memory — the sink tests and the
// telemetry-driven experiments read from.
type CollectSink struct {
	mu     sync.Mutex
	spans  []*Span
	closed bool
}

// NewCollectSink builds an empty collecting sink.
func NewCollectSink() *CollectSink { return &CollectSink{} }

// Emit appends the span.
func (c *CollectSink) Emit(s *Span) {
	c.mu.Lock()
	if !c.closed {
		c.spans = append(c.spans, s)
	}
	c.mu.Unlock()
}

// Close stops collection.
func (c *CollectSink) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// Spans returns the collected spans in completion order.
func (c *CollectSink) Spans() []*Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// Last returns the most recently completed span, or nil.
func (c *CollectSink) Last() *Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.spans) == 0 {
		return nil
	}
	return c.spans[len(c.spans)-1]
}

// Reset drops collected spans.
func (c *CollectSink) Reset() {
	c.mu.Lock()
	c.spans = c.spans[:0]
	c.mu.Unlock()
}

// spanJSON is the export shape of a span: one postmortem span line.
type spanJSON struct {
	ID           uint64      `json:"id"`
	Req          uint64      `json:"req,omitempty"`
	Hop          int         `json:"hop,omitempty"`
	Tenant       uint64      `json:"tenant,omitempty"`
	Priority     string      `json:"priority,omitempty"`
	Op           string      `json:"op"`
	PID          int         `json:"pid"`
	Window       int         `json:"window"`
	Engine       int         `json:"engine"`
	StartUnixNs  int64       `json:"start_unix_ns"`
	HostNs       int64       `json:"host_ns"`
	InBytes      int         `json:"in_bytes"`
	OutBytes     int         `json:"out_bytes"`
	CC           string      `json:"cc"`
	Retries      int         `json:"retries"`
	PasteRejects int         `json:"paste_rejects"`
	ERATHits     int64       `json:"erat_hits"`
	ERATMisses   int64       `json:"erat_misses"`
	DeviceCycles int64       `json:"device_cycles"`
	Stages       []stageJSON `json:"stages"`
}

type stageJSON struct {
	Stage   string `json:"stage"`
	OffNs   int64  `json:"off_ns"` // start offset from span start
	DurNs   int64  `json:"dur_ns"`
	Cycles  int64  `json:"cycles"`
	Attempt int    `json:"attempt"`
}

func spanToJSON(s *Span) spanJSON {
	j := spanJSON{
		ID: s.ID, Req: s.ReqID, Hop: s.Hop,
		Tenant: s.Tenant, Priority: s.Priority,
		Op: s.Op, PID: s.PID, Window: s.Window, Engine: s.Engine,
		StartUnixNs: s.Start.UnixNano(), HostNs: s.End.Sub(s.Start).Nanoseconds(),
		InBytes: s.InBytes, OutBytes: s.OutBytes, CC: s.CC,
		Retries: s.Retries, PasteRejects: s.PasteRejects,
		ERATHits: s.ERATHits, ERATMisses: s.ERATMisses, DeviceCycles: s.DeviceCycles,
	}
	for _, r := range s.Stages {
		j.Stages = append(j.Stages, stageJSON{
			Stage: r.Stage.String(), OffNs: r.Start.Sub(s.Start).Nanoseconds(),
			DurNs: r.End.Sub(r.Start).Nanoseconds(), Cycles: r.Cycles, Attempt: r.Attempt,
		})
	}
	return j
}

// MarshalJSON exports the span in its one JSON shape, the span line of
// the flight recorder's postmortem bundles.
func (s *Span) MarshalJSON() ([]byte, error) { return json.Marshal(spanToJSON(s)) }

// chromeEvent is one Chrome trace_event entry ("X" complete events plus
// "M" metadata). https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeSink accumulates spans and, on Close, writes a Chrome
// trace_event JSON document ({"traceEvents": [...]}) that loads in
// chrome://tracing and Perfetto. Every request becomes one track (tid =
// span ID, named after the request) under the process (pid = address
// space), with an enclosing request slice and one nested slice per
// lifecycle stage; modelled cycle counts ride the args.
type ChromeSink struct {
	mu     sync.Mutex
	w      io.Writer
	events []chromeEvent
	epoch  time.Time
	closed bool
}

// NewChromeSink builds a Chrome-trace sink over w.
func NewChromeSink(w io.Writer) *ChromeSink { return &ChromeSink{w: w} }

func (c *ChromeSink) ts(t time.Time) float64 {
	return float64(t.Sub(c.epoch)) / float64(time.Microsecond)
}

// Emit converts the span into trace events.
func (c *ChromeSink) Emit(s *Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.epoch.IsZero() || s.Start.Before(c.epoch) {
		if c.epoch.IsZero() {
			c.epoch = s.Start
		} else {
			// Shift existing events so timestamps stay non-negative.
			delta := c.ts(s.Start)
			for i := range c.events {
				c.events[i].Ts -= delta
			}
			c.epoch = s.Start
		}
	}
	c.events = append(c.events,
		chromeEvent{
			Name: "thread_name", Ph: "M", PID: s.PID, TID: s.ID,
			Args: map[string]any{"name": fmt.Sprintf("req %d %s w%d", s.ID, s.Op, s.Window)},
		},
		chromeEvent{
			Name: s.Op, Ph: "X", Cat: "request",
			Ts: c.ts(s.Start), Dur: c.ts(s.End) - c.ts(s.Start),
			PID: s.PID, TID: s.ID,
			Args: map[string]any{
				"cc": s.CC, "in_bytes": s.InBytes, "out_bytes": s.OutBytes,
				"device_cycles": s.DeviceCycles, "retries": s.Retries,
				"paste_rejects": s.PasteRejects,
				"erat_hits":     s.ERATHits, "erat_misses": s.ERATMisses,
				"engine": s.Engine, "window": s.Window,
				"req": s.ReqID, "hop": s.Hop,
			},
		})
	for _, r := range s.Stages {
		c.events = append(c.events, chromeEvent{
			Name: r.Stage.String(), Ph: "X", Cat: "stage",
			Ts: c.ts(r.Start), Dur: c.ts(r.End) - c.ts(r.Start),
			PID: s.PID, TID: s.ID,
			Args: map[string]any{"cycles": r.Cycles, "attempt": r.Attempt},
		})
	}
}

// Close writes the accumulated trace document.
func (c *ChromeSink) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: c.events, DisplayTimeUnit: "ns"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []chromeEvent{}
	}
	enc := json.NewEncoder(c.w)
	return enc.Encode(doc)
}
