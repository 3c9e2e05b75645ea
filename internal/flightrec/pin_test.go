package flightrec

import (
	"bufio"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"nxzip/internal/telemetry"
)

// pin_test.go holds the recorder's outputs still: the order its rings
// hand back across a wrap, and the shape of a postmortem bundle.

// lastReqs is the reference: request IDs 1..puts, of which a ring of
// capacity keeps the last, and n of those, oldest first (n <= 0: all).
func lastReqs(puts, n, capacity int) []uint64 {
	held := min(puts, capacity)
	if n <= 0 || n > held {
		n = held
	}
	var out []uint64
	for i := puts - n + 1; i <= puts; i++ {
		out = append(out, uint64(i))
	}
	return out
}

// TestRingsOrderAcrossWrap pins Digests, Slowest, Seq, RetainedRequests
// and Status().Retained after cap-1, cap, cap+1 and 2*cap+3 requests.
// Every request errs, so every one is retained, and odd ones park a
// span first.
func TestRingsOrderAcrossWrap(t *testing.T) {
	const digestCap, retainedCap = 6, 4
	for _, capacity := range []int{digestCap, retainedCap} {
		for _, puts := range []int{capacity - 1, capacity, capacity + 1, 2*capacity + 3} {
			r := New(Options{DigestRing: digestCap, Retained: retainedCap})
			tr := r.Tracer()
			for i := 1; i <= puts; i++ {
				if i%2 == 1 {
					s := tr.Start("compress", 1, 0)
					s.ReqID = uint64(i)
					tr.Finish(s)
				}
				d := okDigest(uint64(i), float64(i))
				d.Outcome = telemetry.OutcomeError
				if seq := r.Complete(d); seq != uint64(i) {
					t.Fatalf("puts=%d: Complete #%d returned seq %d", puts, i, seq)
				}
			}
			if r.Seq() != uint64(puts) {
				t.Fatalf("puts=%d: Seq = %d", puts, r.Seq())
			}
			for _, n := range []int{0, 1, 3, digestCap, digestCap + 2} {
				var got []uint64
				for _, d := range r.Digests(n) {
					if d.Seq != d.Req {
						t.Fatalf("puts=%d: digest req %d carries seq %d", puts, d.Req, d.Seq)
					}
					got = append(got, d.Req)
				}
				if want := lastReqs(puts, n, digestCap); !reflect.DeepEqual(got, want) {
					t.Fatalf("puts=%d Digests(%d):\n got %v\nwant %v", puts, n, got, want)
				}
			}
			var slow []uint64
			for _, d := range r.Slowest(3) {
				slow = append(slow, d.Req)
			}
			want := lastReqs(puts, 3, digestCap)
			sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
			if !reflect.DeepEqual(slow, want) {
				t.Fatalf("puts=%d Slowest(3) = %v, want %v", puts, slow, want)
			}
			var got []uint64
			for _, rr := range r.RetainedRequests() {
				got = append(got, rr.Digest.Req)
				if len(rr.Spans) != int(rr.Digest.Req%2) {
					t.Fatalf("puts=%d: retained req %d holds %d spans", puts, rr.Digest.Req, len(rr.Spans))
				}
				if len(rr.Spans) == 1 && rr.Spans[0].ReqID != rr.Digest.Req {
					t.Fatalf("puts=%d: retained req %d holds the span of req %d", puts, rr.Digest.Req, rr.Spans[0].ReqID)
				}
			}
			if want := lastReqs(puts, 0, retainedCap); !reflect.DeepEqual(got, want) {
				t.Fatalf("puts=%d RetainedRequests:\n got %v\nwant %v", puts, got, want)
			}
			if st := r.Status(); st.Retained != min(puts, retainedCap) || st.Requests != uint64(puts) {
				t.Fatalf("puts=%d Status: retained %d requests %d", puts, st.Retained, st.Requests)
			}
		}
	}
	if got := New(Options{}).RetainedRequests(); got == nil || len(got) != 0 {
		t.Fatalf("RetainedRequests of a fresh recorder = %#v, want an empty non-nil slice", got)
	}
}

// TestPostmortemShapePinned pins a bundle's line kinds, in order, and
// the keys of its span lines: the postmortem reader (cmd/nxinspect)
// and anyone grepping a bundle key on both.
func TestPostmortemShapePinned(t *testing.T) {
	dir := t.TempDir()
	r := New(Options{Dir: dir, Retained: 2})
	reg := telemetry.NewRegistry()
	reg.Counter("nx.requests").Add(5)
	r.SetSources(testSources(reg))
	tr := r.Tracer()
	for req := uint64(1); req <= 3; req++ {
		s := tr.Start("compress-dht", 7, 1)
		s.ReqID, s.Hop, s.Tenant, s.Priority = req, 1, 5, "batch"
		s.CC, s.InBytes, s.OutBytes, s.DeviceCycles = "ok", 4096, 1024, 900
		now := time.Now()
		s.RecordStage(telemetry.StageSubmit, now, now.Add(time.Microsecond), 0)
		s.RecordPipeline(now, now.Add(time.Millisecond), []telemetry.PipelineStage{
			{Stage: telemetry.StageSetup, Cycles: 10}, {Stage: telemetry.StageLZ, Cycles: 800},
		})
		tr.Finish(s)
		d := okDigest(req, 100)
		d.Attempts = 2
		r.Complete(d)
	}
	path, err := r.TriggerPostmortem("pin")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var kinds []string
	spanKeys := map[string]bool{}
	spans := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ln map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatal(err)
		}
		kind := ln["kind"].(string)
		if len(kinds) == 0 || kinds[len(kinds)-1] != kind {
			kinds = append(kinds, kind)
		}
		if kind != "span" {
			continue
		}
		spans++
		for k := range ln {
			spanKeys[k] = true
		}
		span := ln["span"].(map[string]any)
		for k := range span {
			spanKeys["span."+k] = true
		}
		for _, st := range span["stages"].([]any) {
			for k := range st.(map[string]any) {
				spanKeys["span.stages[]."+k] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	wantKinds := []string{"meta", "config", "health", "device", "digest", "span", "event", "snapshot"}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Fatalf("line kinds %v, want %v", kinds, wantKinds)
	}
	if spans != 2 {
		t.Fatalf("%d span lines, want the 2 the retained ring holds", spans)
	}
	var keys []string
	for k := range spanKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wantKeys := []string{
		"kind", "span",
		"span.cc", "span.device_cycles", "span.engine", "span.erat_hits", "span.erat_misses",
		"span.hop", "span.host_ns", "span.id", "span.in_bytes", "span.op", "span.out_bytes",
		"span.paste_rejects", "span.pid", "span.priority", "span.req", "span.retries",
		"span.stages", "span.stages[].attempt", "span.stages[].cycles", "span.stages[].dur_ns",
		"span.stages[].off_ns", "span.stages[].stage", "span.start_unix_ns", "span.tenant",
		"span.window",
	}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Fatalf("span line keys:\n got %q\nwant %q", keys, wantKeys)
	}
}
