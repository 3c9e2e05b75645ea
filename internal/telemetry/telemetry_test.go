package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Parallel increments across labeled families must sum exactly — no lost
// updates, and With must return a stable instrument per label even when
// goroutines race to create it.
func TestCounterVecParallelSumsExactly(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("test.requests")
	const (
		goroutines = 16
		perG       = 5000
		labels     = 4
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				vec.With(fmt.Sprintf("lane-%d", (g+i)%labels)).Inc()
			}
		}(g)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got, want := snap.CounterSum("test.requests"), int64(goroutines*perG); got != want {
		t.Fatalf("counter sum %d, want %d", got, want)
	}
	// Every label saw exactly its share.
	for l := 0; l < labels; l++ {
		want := int64(goroutines * perG / labels)
		if got := snap.Counter("test.requests", fmt.Sprintf("lane-%d", l)); got != want {
			t.Fatalf("label lane-%d = %d, want %d", l, got, want)
		}
	}
}

// Snapshots taken while updates are in flight must be tear-free: every
// read value is one the instrument actually held (monotone for
// counters), and the snapshot never crashes or races.
func TestSnapshotDuringUpdateIsTearFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(int64(i % 100))
				h.Observe(float64(i % 1000))
			}
		}()
	}
	var prev int64 = -1
	for i := 0; i < 200; i++ {
		snap := reg.Snapshot()
		v := snap.Counter("c", "")
		if v < prev {
			t.Fatalf("counter went backwards: %d after %d", v, prev)
		}
		prev = v
		for _, gs := range snap.Gauges {
			if gs.Value < 0 || gs.Value > gs.Max {
				t.Fatalf("gauge value %d outside [0, max=%d]", gs.Value, gs.Max)
			}
		}
		for _, hs := range snap.Histograms {
			if hs.Count > 0 && (hs.Min < 0 || hs.Max > 999 || hs.Mean < hs.Min || hs.Mean > hs.Max) {
				t.Fatalf("torn histogram snapshot: %+v", hs)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Set(17)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 17 {
		t.Fatalf("gauge value=%d max=%d, want 3/17", g.Value(), g.Max())
	}
	g.Add(20)
	if g.Value() != 23 || g.Max() != 23 {
		t.Fatalf("gauge after Add: value=%d max=%d, want 23/23", g.Value(), g.Max())
	}
}

// The histogram reservoir is bounded: observing far more samples than
// the window must not grow memory, while count/mean stay exact.
func TestHistogramBounded(t *testing.T) {
	h := newHistogram()
	const n = 3 * histogramWindow
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	if h.ring.Held() != histogramWindow || h.ring.Len() != histogramWindow {
		t.Fatalf("ring held=%d len=%d, want %d", h.ring.Held(), h.ring.Len(), histogramWindow)
	}
	s := h.snapshot("h", "")
	if s.Count != n {
		t.Fatalf("count %d, want %d", s.Count, n)
	}
	if s.Min != 0 || s.Max != n-1 {
		t.Fatalf("min/max %v/%v, want 0/%d", s.Min, s.Max, n-1)
	}
	// Percentiles cover the most recent window only.
	if s.P50 < float64(n-histogramWindow) {
		t.Fatalf("p50 %v reaches outside the bounded window", s.P50)
	}
}

func mkSpan(id uint64) *Span {
	base := time.Now()
	s := &Span{ID: id, Op: "compress-dht", PID: 1, Window: 2, Start: base,
		InBytes: 100, OutBytes: 50, CC: "success", DeviceCycles: 1234}
	s.RecordStage(StageSubmit, base, base.Add(time.Microsecond), 0)
	s.RecordStage(StageFIFO, base.Add(time.Microsecond), base.Add(2*time.Microsecond), 0)
	s.RecordPipeline(base.Add(2*time.Microsecond), base.Add(10*time.Microsecond), []PipelineStage{
		{StageSetup, 2500}, {StageTranslate, 300}, {StageDHTGen, 4000},
		{StageDMAIn, 100}, {StageLZ, 800}, {StageEncode, 400},
		{StageDMAOut, 60}, {StageComplete, 1000},
	})
	s.End = base.Add(10 * time.Microsecond)
	return s
}

func TestSpanMonotonicAndCycleSums(t *testing.T) {
	s := mkSpan(1)
	if !s.Monotonic() {
		t.Fatal("synthesized span should be monotonic")
	}
	if got := s.CyclesFor(StageDHTGen); got != 4000 {
		t.Fatalf("dht-gen cycles %d, want 4000", got)
	}
	if got := s.CyclesFor(StageFIFO); got != 0 {
		t.Fatalf("fifo cycles %d, want 0", got)
	}
	// Pipeline host intervals must tile [start, end] exactly.
	last := s.Stages[len(s.Stages)-1]
	if !last.End.Equal(s.End) {
		t.Fatalf("last stage ends %v, span ends %v", last.End, s.End)
	}
	// Nil spans are safe everywhere.
	var nilSpan *Span
	nilSpan.RecordStage(StageSubmit, time.Now(), time.Now(), 0)
	nilSpan.RecordPipeline(time.Now(), time.Now(), nil)
	if !nilSpan.Monotonic() || nilSpan.CyclesFor(StageLZ) != 0 {
		t.Fatal("nil span methods misbehave")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	s := tr.Start("op", 1, 0)
	if s != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	tr.Finish(s)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestChromeSinkEmitsValidTraceEventJSON(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	tr := NewTracer(sink)
	for i := 0; i < 3; i++ {
		s := mkSpan(uint64(i + 1))
		tr.Finish(s)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	var xEvents, mEvents int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			xEvents++
			if e.Ts < 0 || e.Dur < 0 {
				t.Fatalf("negative ts/dur in %+v", e)
			}
		case "M":
			mEvents++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	// 3 spans x (1 request slice + 10 stage slices) and one metadata
	// event per span.
	if xEvents != 3*11 || mEvents != 3 {
		t.Fatalf("got %d X events and %d M events, want %d/%d", xEvents, mEvents, 33, 3)
	}
	// Emit after Close must be dropped, not crash or corrupt output.
	sink.Emit(mkSpan(99))
}

// TestSpanMarshalJSON: a span marshals to the one JSON line shape the
// postmortem bundles carry.
func TestSpanMarshalJSON(t *testing.T) {
	raw, err := json.Marshal(mkSpan(7))
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]any
	if err := json.Unmarshal(raw, &line); err != nil {
		t.Fatalf("span JSON does not parse: %v", err)
	}
	if line["op"] != "compress-dht" {
		t.Fatalf("span JSON op = %v", line["op"])
	}
}

func TestSnapshotFormatAndJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.count").Add(3)
	reg.GaugeVec("b.depth").With("0").Set(5)
	reg.Histogram("c.wait").Observe(1.5)
	snap := reg.Snapshot()
	var text bytes.Buffer
	snap.Format(&text)
	if text.Len() == 0 {
		t.Fatal("empty text format")
	}
	var jb bytes.Buffer
	if err := snap.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(jb.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if round.Counter("a.count", "") != 3 {
		t.Fatalf("roundtripped counter = %d", round.Counter("a.count", ""))
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := &Snapshot{
		Counters: []CounterSnapshot{
			{Name: "nx.requests", Value: 3},
			{Name: "nx.engine.requests", Label: "0/comp", Value: 2},
		},
		Gauges: []GaugeSnapshot{{Name: "vas.fifo_occupancy", Value: 1, Max: 4}},
		Histograms: []HistogramSnapshot{
			{Name: "lat", Count: 2, Mean: 10, Min: 5, Max: 15, P50: 10, P95: 14, P99: 15},
		},
	}
	b := &Snapshot{
		Counters: []CounterSnapshot{
			{Name: "nx.requests", Value: 5},
			{Name: "nx.engine.requests", Label: "0/comp", Value: 7},
		},
		Gauges: []GaugeSnapshot{{Name: "vas.fifo_occupancy", Value: 2, Max: 3}},
		Histograms: []HistogramSnapshot{
			{Name: "lat", Count: 6, Mean: 30, Min: 20, Max: 40, P50: 30, P95: 38, P99: 40},
		},
	}
	m := MergeSnapshots([]LabeledSnapshot{{Label: "cp0", Snap: a}, {Label: "cp1", Snap: b}})

	// Aggregate rows keep the original name+label and sum across sources.
	if got := m.Counter("nx.requests", ""); got != 8 {
		t.Fatalf("aggregate nx.requests = %d, want 8", got)
	}
	if got := m.Counter("nx.engine.requests", "0/comp"); got != 9 {
		t.Fatalf("aggregate engine row = %d, want 9", got)
	}
	// Per-source rows carry the source-prefixed label.
	if got := m.Counter("nx.requests", "cp0"); got != 3 {
		t.Fatalf("cp0 row = %d, want 3", got)
	}
	if got := m.Counter("nx.engine.requests", "cp1/0/comp"); got != 7 {
		t.Fatalf("cp1 engine row = %d, want 7", got)
	}
	// Gauges: aggregate value and max are sums across sources.
	for _, g := range m.Gauges {
		if g.Name == "vas.fifo_occupancy" && g.Label == "" {
			if g.Value != 3 || g.Max != 7 {
				t.Fatalf("aggregate gauge = %+v", g)
			}
		}
	}
	// Histograms: exact count/min/max, count-weighted mean.
	for _, h := range m.Histograms {
		if h.Name == "lat" && h.Label == "" {
			if h.Count != 8 || h.Min != 5 || h.Max != 40 {
				t.Fatalf("aggregate hist = %+v", h)
			}
			if want := (10.0*2 + 30.0*6) / 8; h.Mean != want {
				t.Fatalf("weighted mean = %v, want %v", h.Mean, want)
			}
		}
	}
	// 2 sources x 2 counters + 2 aggregates = 6 counter rows, sorted.
	if len(m.Counters) != 6 {
		t.Fatalf("counter rows = %d, want 6", len(m.Counters))
	}
	for i := 1; i < len(m.Counters); i++ {
		p, c := m.Counters[i-1], m.Counters[i]
		if p.Name > c.Name || (p.Name == c.Name && p.Label > c.Label) {
			t.Fatal("merged counters not sorted")
		}
	}
}

func TestSnapshotAppend(t *testing.T) {
	s := &Snapshot{Counters: []CounterSnapshot{{Name: "a", Value: 1}}}
	s.Append(nil) // nil-safe
	s.Append(&Snapshot{Counters: []CounterSnapshot{{Name: "b", Value: 2}}})
	if len(s.Counters) != 2 || s.Counter("b", "") != 2 {
		t.Fatalf("append result = %+v", s.Counters)
	}
}
