package nxzip

// telemetry_test.go covers the observability layer end to end: the
// tracing soak under concurrency (run with -race), the zero-allocation
// guard for the disabled path, the Chrome trace_event acceptance test
// through ParallelWriter, and Metrics() reconciliation against known
// request/byte totals.

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/nx"
	"nxzip/internal/telemetry"
	"nxzip/internal/testutil"
)

// TestTraceSoakConcurrent hammers one Accelerator from N goroutines with
// tracing enabled: every request must produce exactly one span, and no
// span may have out-of-order stage timestamps.
func TestTraceSoakConcurrent(t *testing.T) {
	cfg := P9()
	cfg.Device.Engines = 2
	acc := Open(cfg)
	defer acc.Close()

	sink := telemetry.NewCollectSink()
	acc.StartTrace(sink)

	const (
		goroutines = 8
		perG       = 20
	)
	src := corpus.Generate(corpus.Text, 16<<10, 7)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, _, err := acc.CompressGzip(src); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := acc.StopTrace(); err != nil {
		t.Fatal(err)
	}

	spans := sink.Spans()
	if len(spans) != goroutines*perG {
		t.Fatalf("%d spans for %d requests", len(spans), goroutines*perG)
	}
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
		if !s.Monotonic() {
			t.Fatalf("span %d has out-of-order stage timestamps: %+v", s.ID, s.Stages)
		}
		if s.CC != "success" {
			t.Fatalf("span %d cc = %q", s.ID, s.CC)
		}
		if s.InBytes != len(src) {
			t.Fatalf("span %d in_bytes = %d, want %d", s.ID, s.InBytes, len(src))
		}
		if s.DeviceCycles <= 0 || len(s.Stages) == 0 {
			t.Fatalf("span %d missing device accounting: %+v", s.ID, s)
		}
		if s.End.Before(s.Start) {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}
	// Metrics reconcile: the device saw exactly these requests.
	snap := acc.Metrics()
	if got := snap.Counter("nx.requests", ""); got != goroutines*perG {
		t.Fatalf("nx.requests = %d, want %d", got, goroutines*perG)
	}
	if got := snap.Counter("nx.in_bytes", ""); got != int64(goroutines*perG*len(src)) {
		t.Fatalf("nx.in_bytes = %d, want %d", got, goroutines*perG*len(src))
	}
}

// TestTraceZeroAllocWhenDisabled is the hot-path overhead guard: with no
// tracer installed, a request allocates exactly as much as it did before
// telemetry existed — installing and removing a tracer must leave the
// disabled path's allocation count unchanged.
func TestTraceZeroAllocWhenDisabled(t *testing.T) {
	if testutil.RaceEnabled {
		// sync.Pool drops a share of its Puts under the detector, so the
		// pooled envelope is reallocated now and then: 5 -> 6.
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 4<<10, 7)
	ctx := acc.Device().OpenContext(1)
	defer ctx.Close()

	// Zero VAs skip MapBuffer and translation, so the request path's
	// allocation count is deterministic.
	run := func() float64 {
		return testing.AllocsPerRun(20, func() {
			csb, _, err := ctx.Submit(&nx.CRB{Func: nx.FCCompressFHT, Input: src})
			if err != nil || csb.CC != nx.CCSuccess {
				t.Fatalf("submit: %v %v", err, csb.CC)
			}
		})
	}
	before := run()
	acc.StartTrace(telemetry.NewCollectSink())
	traced := run()
	if err := acc.StopTrace(); err != nil {
		t.Fatal(err)
	}
	after := run()
	if after != before {
		t.Fatalf("disabled-path allocations changed after trace install/remove: %v -> %v", before, after)
	}
	if traced < before {
		t.Fatalf("traced path allocates less than untraced (%v < %v)?", traced, before)
	}
}

// TestParallelWriterChromeTrace is the acceptance test: a ParallelWriter
// run with tracing emits valid Chrome trace_event JSON whose per-request
// spans cover submit→complete with monotonic stage boundaries, and the
// metrics snapshot reconciles with the run's totals.
func TestParallelWriterChromeTrace(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()

	var trace bytes.Buffer
	acc.StartTrace(telemetry.NewChromeSink(&trace))

	src := corpus.Generate(corpus.Text, 2<<20, 7)
	const chunk = 256 << 10
	var out bytes.Buffer
	w := acc.NewParallelWriterChunk(&out, chunk, 4)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := acc.StopTrace(); err != nil {
		t.Fatal(err)
	}

	wantMembers := (len(src) + chunk - 1) / chunk

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  uint64  `json:"tid"`
			Cat  string  `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid Chrome trace_event JSON: %v", err)
	}

	type track struct {
		reqTs, reqEnd float64
		stages        []struct{ ts, end float64 }
	}
	tracks := map[uint64]*track{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		tr := tracks[e.TID]
		if tr == nil {
			tr = &track{}
			tracks[e.TID] = tr
		}
		switch e.Cat {
		case "request":
			tr.reqTs, tr.reqEnd = e.Ts, e.Ts+e.Dur
		case "stage":
			tr.stages = append(tr.stages, struct{ ts, end float64 }{e.Ts, e.Ts + e.Dur})
		}
	}
	if len(tracks) != wantMembers {
		t.Fatalf("%d request tracks for %d members", len(tracks), wantMembers)
	}
	const slack = 1e-3 // µs; JSON round-trips through float microseconds
	for tid, tr := range tracks {
		if len(tr.stages) == 0 {
			t.Fatalf("request %d has no stage slices", tid)
		}
		prev := tr.reqTs
		for i, s := range tr.stages {
			if s.ts < prev-slack {
				t.Fatalf("request %d stage %d starts at %v before previous boundary %v", tid, i, s.ts, prev)
			}
			if s.end < s.ts {
				t.Fatalf("request %d stage %d ends before it starts", tid, i)
			}
			prev = s.ts
			if s.end > tr.reqEnd+slack {
				t.Fatalf("request %d stage %d ends at %v after request end %v", tid, i, s.end, tr.reqEnd)
			}
		}
	}

	// Metrics reconcile with the run's request/byte totals.
	snap := acc.Metrics()
	if got := snap.Counter("nxzip.parallel.chunks", ""); got != int64(wantMembers) {
		t.Fatalf("nxzip.parallel.chunks = %d, want %d", got, wantMembers)
	}
	if got := snap.Counter("nx.requests", ""); got != int64(wantMembers) {
		t.Fatalf("nx.requests = %d, want %d", got, wantMembers)
	}
	if got := snap.Counter("nx.in_bytes", ""); got != int64(len(src)) {
		t.Fatalf("nx.in_bytes = %d, want %d", got, len(src))
	}
	// The engines never see the length stamp the host adds to each member.
	if got, want := snap.Counter("nx.out_bytes", ""), int64(w.Stats.OutBytes-wantMembers*deflate.MemberIndexLen); got != want {
		t.Fatalf("nx.out_bytes = %d, want %d", got, want)
	}
	if got := snap.Counter("vas.completes", ""); got != int64(wantMembers) {
		t.Fatalf("vas.completes = %d, want %d", got, wantMembers)
	}
	// The reorder-queue gauge drained back to zero and saw some depth.
	foundGauge := false
	for _, g := range snap.Gauges {
		if g.Name == "nxzip.parallel.reorder_depth" {
			foundGauge = true
			if g.Value != 0 {
				t.Fatalf("reorder depth did not drain: %d", g.Value)
			}
			if g.Max < 1 {
				t.Fatalf("reorder depth high-water %d, want >= 1", g.Max)
			}
		}
	}
	if !foundGauge {
		t.Fatal("nxzip.parallel.reorder_depth gauge missing from snapshot")
	}
}

// TestMetricsSnapshotEngineCounters checks the per-engine harvest:
// engine counters sum to the device totals and the stage-cycle labels
// are present.
func TestMetricsSnapshotEngineCounters(t *testing.T) {
	cfg := P9()
	cfg.Device.Engines = 2
	acc := Open(cfg)
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 64<<10, 7)
	const n = 6
	for i := 0; i < n; i++ {
		if _, _, err := acc.CompressGzip(src); err != nil {
			t.Fatal(err)
		}
	}
	snap := acc.Metrics()
	if got := snap.CounterSum("nx.engine.requests"); got != n {
		t.Fatalf("engine requests sum %d, want %d", got, n)
	}
	if got := snap.CounterSum("nx.engine.in_bytes"); got != int64(n*len(src)) {
		t.Fatalf("engine in_bytes sum %d, want %d", got, n*len(src))
	}
	if got := snap.CounterSum("nx.engine.cc"); got != n {
		t.Fatalf("engine cc sum %d, want %d", got, n)
	}
	if got := snap.Counter("nx.engine.stage_cycles", "0/setup"); got <= 0 {
		t.Fatalf("engine 0 setup cycles = %d, want > 0", got)
	}
	if got := snap.Counter("nxzip.writer.members", ""); got != 0 {
		t.Fatalf("writer members %d, want 0 (no Writer used)", got)
	}
}
