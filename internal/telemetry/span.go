package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of a request's lifecycle. The first group
// are host-side queueing phases measured in wall-clock; the second group
// are the engine's modelled pipeline stages, whose Cycles field is exact
// and whose host interval is synthesized (see Span.RecordPipeline).
type Stage uint8

const (
	// StageSubmit covers paste attempts including credit-wait spinning,
	// from first paste try to the paste that was accepted.
	StageSubmit Stage = iota
	// StageFIFO is receive-FIFO residency: paste accept to dequeue.
	StageFIFO
	// StageSetup is CRB fetch + engine dispatch.
	StageSetup
	// StageTranslate is NMMU address translation (ERAT hits/walks).
	StageTranslate
	// StageDHTGen is dynamic Huffman table generation.
	StageDHTGen
	// StageDMAIn is the source-operand DMA read.
	StageDMAIn
	// StageLZ is the match-search stage (compression).
	StageLZ
	// StageEncode is the Huffman encode stage (compression).
	StageEncode
	// StageDecode is the decode stage (decompression).
	StageDecode
	// StageDMAOut is the target-operand DMA write.
	StageDMAOut
	// StageComplete is CSB writeback and credit return.
	StageComplete
	// StageFault is one OS-side fault-handling interlude: the touch of
	// the faulting page between a CCTranslationFault and the resubmit.
	// Its Cycles field carries the faulted attempt's wasted device
	// cycles.
	StageFault

	numStages
)

var stageNames = [numStages]string{
	"submit", "fifo", "setup", "translate", "dht-gen", "dma-in", "lz",
	"encode", "decode", "dma-out", "complete", "fault",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// StageRecord is one timed lifecycle phase. Start/End are host
// wall-clock; Cycles is the modelled device-cycle cost (0 for phases
// the device model does not charge, like FIFO residency).
type StageRecord struct {
	Stage   Stage
	Start   time.Time
	End     time.Time
	Cycles  int64
	Attempt int // fault-and-resubmit round this record belongs to
}

// Span is the trace record of one request, from first paste attempt to
// CSB completion, including every fault/resubmit round. A span is only
// allocated when a tracer is installed; all recording methods are
// nil-safe so instrumentation sites need no guards.
//
// Concurrency: a span is written by at most one goroutine at a time —
// the submitter before paste and after completion, the goroutine that
// dequeued the request in between — with the switchboard mutex and the
// completion channel providing the happens-before edges.
type Span struct {
	ID uint64
	// ReqID is the root-level request identity: every span belonging to
	// one public API call — the original attempt, failover re-dispatches,
	// batch entries, the fault-resubmit straggler — carries the same
	// ReqID, so one grep over a sink reconstructs the request's history.
	// Zero when the caller did not mint one (internal traffic).
	ReqID uint64
	// Hop is the dispatch attempt ordinal under one ReqID: 0 for the
	// original dispatch, 1.. for failover re-dispatches.
	Hop int
	// Tenant is the node-level view identity (topology context ID) the
	// submitting context carries — the admission gate's quota key. 0 for
	// raw single-device contexts.
	Tenant uint64
	// Priority is the admission-class name the view carried at span
	// start ("interactive", "batch", "background"); empty when unset.
	Priority string
	Op       string // function code
	PID      int
	Window   int
	Engine   int // engine index of the final attempt
	Start    time.Time
	End      time.Time
	InBytes  int
	OutBytes int
	CC       string
	Retries  int // fault-and-resubmit rounds
	// PasteRejects counts paste attempts bounced for credits/FIFO space
	// before the request entered the FIFO (summed across resubmits).
	PasteRejects int
	ERATHits     int64
	ERATMisses   int64
	// DeviceCycles is the total modelled cost including faulted attempts.
	DeviceCycles int64
	Stages       []StageRecord
}

// RecordStage appends one timed lifecycle phase.
func (s *Span) RecordStage(st Stage, start, end time.Time, cycles int64) {
	if s == nil {
		return
	}
	s.Stages = append(s.Stages, StageRecord{
		Stage: st, Start: start, End: end, Cycles: cycles, Attempt: s.Retries,
	})
}

// PipelineStage pairs a modelled stage with its cycle cost, for
// RecordPipeline.
type PipelineStage struct {
	Stage  Stage
	Cycles int64
}

// RecordPipeline appends the engine's modelled stage breakdown for one
// attempt. The cycle counts are exact; since the model charges the
// engine for max(overlapped stages) rather than their sum, the host
// intervals are synthesized — the [start, end] engine-occupancy window
// is divided proportionally to each stage's cycle share — so a trace
// renders the relative weight of every stage with monotonic boundaries.
func (s *Span) RecordPipeline(start, end time.Time, stages []PipelineStage) {
	if s == nil {
		return
	}
	var total int64
	for _, st := range stages {
		total += st.Cycles
	}
	span := end.Sub(start)
	at := start
	for i, st := range stages {
		if st.Cycles <= 0 {
			continue
		}
		var d time.Duration
		if total > 0 {
			d = time.Duration(float64(span) * float64(st.Cycles) / float64(total))
		}
		stEnd := at.Add(d)
		if i == len(stages)-1 || stEnd.After(end) {
			stEnd = end // absorb rounding into the last stage
		}
		s.RecordStage(st.Stage, at, stEnd, st.Cycles)
		at = stEnd
	}
}

// CyclesFor sums the modelled cycles recorded for one stage across all
// attempts.
func (s *Span) CyclesFor(st Stage) int64 {
	if s == nil {
		return 0
	}
	var sum int64
	for _, r := range s.Stages {
		if r.Stage == st {
			sum += r.Cycles
		}
	}
	return sum
}

// Monotonic reports whether the span's stage records are chronologically
// ordered: each record's End is not before its Start, and record starts
// never go backwards. The soak tests assert this for every span of a
// concurrent run.
func (s *Span) Monotonic() bool {
	if s == nil {
		return true
	}
	var prev time.Time
	for _, r := range s.Stages {
		if r.End.Before(r.Start) || r.Start.Before(prev) {
			return false
		}
		prev = r.Start
	}
	return true
}

// spanStageCap is the Stages capacity new (and recycled) spans carry:
// enough for the submit/FIFO records plus a full pipeline breakdown
// without growing on the fault-free path.
const spanStageCap = 12

// Tracer hands out spans and forwards finished ones to its sink. A nil
// *Tracer is a valid no-op tracer: Start returns nil and every Span
// method on nil is a no-op, which is the zero-cost disabled path.
type Tracer struct {
	sink Sink
	seq  atomic.Uint64
	// pool, when non-nil, recycles spans: Start draws from it and the
	// sink's owner returns consumed spans with Recycle, so an always-on
	// recorder keeps the steady-state request path allocation-free.
	pool *sync.Pool
}

// NewTracer builds a tracer emitting to sink.
func NewTracer(sink Sink) *Tracer {
	return &Tracer{sink: sink}
}

// NewPooledTracer builds a tracer whose spans recycle through a
// sync.Pool: Start reuses spans previously returned with Recycle
// (preserving their Stages backing), so a sink that calls Recycle once
// it is done with each span — the flight recorder does — makes tracing
// allocation-free in the steady state.
func NewPooledTracer(sink Sink) *Tracer {
	return &Tracer{sink: sink, pool: &sync.Pool{New: func() any {
		return &Span{Stages: make([]StageRecord, 0, spanStageCap)}
	}}}
}

// Recycle returns a consumed span to the tracer's pool (no-op for
// unpooled tracers). The caller must not touch s afterwards.
func (t *Tracer) Recycle(s *Span) {
	if t == nil || t.pool == nil || s == nil {
		return
	}
	*s = Span{Stages: s.Stages[:0]}
	t.pool.Put(s)
}

// Start opens a span for one request. Returns nil on a nil tracer.
func (t *Tracer) Start(op string, pid, window int) *Span {
	if t == nil {
		return nil
	}
	if t.pool != nil {
		s := t.pool.Get().(*Span)
		s.ID = t.seq.Add(1)
		s.Op = op
		s.PID = pid
		s.Window = window
		s.Start = time.Now()
		return s
	}
	return &Span{
		ID:     t.seq.Add(1),
		Op:     op,
		PID:    pid,
		Window: window,
		Start:  time.Now(),
		Stages: make([]StageRecord, 0, spanStageCap),
	}
}

// Finish stamps the span's end time and emits it to the sink. Nil-safe.
func (t *Tracer) Finish(s *Span) {
	if t == nil || s == nil {
		return
	}
	s.End = time.Now()
	if t.sink != nil {
		t.sink.Emit(s)
	}
}

// Close flushes and closes the sink.
func (t *Tracer) Close() error {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.sink.Close()
}
