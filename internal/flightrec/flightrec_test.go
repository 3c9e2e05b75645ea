package flightrec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nxzip/internal/telemetry"
)

// okDigest builds a clean first-try digest for request req.
func okDigest(req uint64, totalUS float64) *telemetry.Digest {
	return &telemetry.Digest{
		Req: req, Op: "compress", Device: "dev0",
		InBytes: 64 << 10, OutBytes: 20 << 10,
		QueueUS: 2, TotalUS: totalUS,
		Attempts: 1, Outcome: telemetry.OutcomeOK,
	}
}

// reqSpans is the one span of request req, as its span log hands it over.
func reqSpans(req uint64) []telemetry.Span {
	return []telemetry.Span{{Op: "compress", PID: 1, ReqID: req}}
}

func TestRetentionPredicates(t *testing.T) {
	r := New("")

	// Clean first-try request: digest recorded, spans not kept.
	r.Complete(okDigest(1, 100), reqSpans(1))
	if got := len(r.RetainedRequests()); got != 0 {
		t.Fatalf("clean request retained: %d entries", got)
	}

	// Errored request: retained with its span.
	d := okDigest(2, 100)
	d.Outcome = telemetry.OutcomeError
	r.Complete(d, reqSpans(2))

	// Degraded request: retained.
	d = okDigest(3, 100)
	d.Outcome = telemetry.OutcomeDegraded
	r.Complete(d, reqSpans(3))

	// Re-dispatched request (failover): retained even though it ended OK.
	d = okDigest(4, 100)
	d.Attempts = 2
	r.Complete(d, reqSpans(4))

	ret := r.RetainedRequests()
	if len(ret) != 3 {
		t.Fatalf("retained %d requests, want 3", len(ret))
	}
	for i, want := range []uint64{2, 3, 4} {
		if ret[i].Digest.Req != want {
			t.Errorf("retained[%d].Req = %d, want %d", i, ret[i].Digest.Req, want)
		}
		if len(ret[i].Spans) != 1 || ret[i].Spans[0].ReqID != want {
			t.Errorf("retained[%d] spans not chained to req %d", i, want)
		}
	}
	if r.Seq() != 4 {
		t.Fatalf("Seq = %d, want 4", r.Seq())
	}
}

func TestSlowPredicateGatedByMinSamples(t *testing.T) {
	r := New("")
	// Before minSamples, even a wild outlier is not "slow".
	d := okDigest(1, 1e6)
	r.Complete(d, nil)
	if len(r.RetainedRequests()) != 0 {
		t.Fatal("outlier retained before minSamples")
	}
	// Feed a uniform baseline past minSamples and the recalc there.
	for i := uint64(2); i <= minSamples+6; i++ {
		r.Complete(okDigest(i, 100), nil)
	}
	p99t, _ := r.P99s()
	if p99t <= 0 {
		t.Fatalf("p99 not established: %v", p99t)
	}
	before := len(r.RetainedRequests())
	r.Complete(okDigest(1000, 50*p99t), nil)
	if len(r.RetainedRequests()) != before+1 {
		t.Fatal("slow outlier not retained after minSamples")
	}
	r.Complete(okDigest(1001, p99t/2), nil)
	if len(r.RetainedRequests()) != before+1 {
		t.Fatal("fast request wrongly retained")
	}
}

// TestP99OfEqualsSortedIndex: selecting the largest n - n*99/100 samples
// and taking their smallest is the order statistic the full sort read, at
// every window fill from one sample to past the default 512, on spread-out
// samples, heavy ties, and rising and falling ramps.
func TestP99OfEqualsSortedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	top := make([]float64, 0, 8)
	for n := 1; n <= 700; n++ {
		wins := [4][]float64{}
		for i := 0; i < n; i++ {
			wins[0] = append(wins[0], rng.ExpFloat64()*100)
			wins[1] = append(wins[1], float64(rng.Intn(3)))
			wins[2] = append(wins[2], float64(i))
			wins[3] = append(wins[3], float64(n-i))
		}
		for k, win := range wins {
			sorted := slices.Clone(win)
			slices.Sort(sorted)
			if got, want := p99Of(top, win), sorted[n*99/100]; got != want {
				t.Fatalf("n %d window %d: p99Of = %v, sorted[%d] = %v", n, k, got, n*99/100, want)
			}
		}
	}
}

// TestSamplerDeterminism feeds the identical completion sequence into
// two independent recorders and requires identical retention decisions
// and identical rolling p99s — the sampler must be a pure function of
// its input stream.
func TestSamplerDeterminism(t *testing.T) {
	run := func() ([]uint64, float64, float64) {
		r := New("")
		for i := uint64(1); i <= 3*latencyWindow; i++ {
			d := okDigest(i, float64(50+(i*37)%200)) // deterministic sawtooth
			if i%97 == 0 {
				d.Attempts = 2
			}
			if i%131 == 0 {
				d.Outcome = telemetry.OutcomeDegraded
			}
			r.Complete(d, nil)
		}
		var kept []uint64
		for _, e := range r.RetainedRequests() {
			kept = append(kept, e.Digest.Req)
		}
		p99t, p99q := r.P99s()
		return kept, p99t, p99q
	}
	k1, t1, q1 := run()
	k2, t2, q2 := run()
	if t1 != t2 || q1 != q2 {
		t.Fatalf("p99s diverged: (%v,%v) vs (%v,%v)", t1, q1, t2, q2)
	}
	if len(k1) == 0 || len(k1) != len(k2) {
		t.Fatalf("retention diverged: %d vs %d requests", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("retention diverged at %d: req %d vs %d", i, k1[i], k2[i])
		}
	}
}

// TestDigestRingMonotonicity hammers Complete from many goroutines and
// checks the ring's sequence numbers come out strictly increasing and
// dense — the -race soak for the digest path.
func TestDigestRingMonotonicity(t *testing.T) {
	r := New("")
	const workers, perWorker = 8, digestCap / 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Complete(okDigest(uint64(w*perWorker+i+1), 100), nil)
			}
		}(w)
	}
	wg.Wait()
	if r.Seq() != workers*perWorker {
		t.Fatalf("Seq = %d, want %d", r.Seq(), workers*perWorker)
	}
	held := r.Digests(0)
	if len(held) != digestCap {
		t.Fatalf("ring holds %d, want %d", len(held), digestCap)
	}
	for i := 1; i < len(held); i++ {
		if held[i].Seq != held[i-1].Seq+1 {
			t.Fatalf("ring seq not dense at %d: %d then %d", i, held[i-1].Seq, held[i].Seq)
		}
	}
	if held[len(held)-1].Seq != workers*perWorker {
		t.Fatalf("newest seq = %d, want %d", held[len(held)-1].Seq, workers*perWorker)
	}
}

// TestKeptSpansAreCopies: a kept request's spans are copied, stages and
// all, so the caller's log can be reused at once; every kept span gets an
// ID of its own; a request handed over with no spans is kept digest-only;
// and a ring slot reused after the wrap holds only its new request's spans.
func TestKeptSpansAreCopies(t *testing.T) {
	r := New("")
	log := telemetry.NewSpanLog()
	now := time.Now()
	for hop := 0; hop < 2; hop++ {
		s := log.Open()
		s.ReqID, s.Hop, s.CC = 3, hop, "crc-error"
		s.RecordStage(telemetry.StageSubmit, now, now, 0)
		s.RecordStage(telemetry.StageLZ, now, now, 345)
	}
	d := okDigest(3, 100)
	d.Attempts = 2
	r.Complete(d, log.Spans())
	log.Reset()
	s := log.Open()
	s.ReqID, s.CC = 4, "success"
	s.RecordStage(telemetry.StageDecode, now, now, 9)
	r.Complete(okDigest(4, 100), log.Spans())
	d = okDigest(5, 100)
	d.Outcome = telemetry.OutcomeError
	r.Complete(d, nil)

	ret := r.RetainedRequests()
	if len(ret) != 2 || ret[0].Digest.Req != 3 || ret[1].Digest.Req != 5 {
		t.Fatalf("retained %+v, want requests 3 and 5", ret)
	}
	ids := map[uint64]bool{}
	for hop, sp := range ret[0].Spans {
		if sp.ReqID != 3 || sp.Hop != hop || sp.CC != "crc-error" || len(sp.Stages) != 2 ||
			sp.Stages[1].Stage != telemetry.StageLZ || sp.Stages[1].Cycles != 345 || ids[sp.ID] || sp.ID == 0 {
			t.Errorf("kept span %d of request 3: %+v", hop, sp)
		}
		ids[sp.ID] = true
	}
	if len(ret[0].Spans) != 2 || len(ret[1].Spans) != 0 {
		t.Errorf("request 3 kept %d spans, request 5 %d; want 2 and 0", len(ret[0].Spans), len(ret[1].Spans))
	}
	for i := 0; i < retainedCap; i++ {
		d := okDigest(uint64(10+i), 100)
		d.Outcome = telemetry.OutcomeError
		r.Complete(d, reqSpans(uint64(10+i)))
	}
	for _, rr := range r.RetainedRequests() {
		if len(rr.Spans) != 1 || rr.Spans[0].ReqID != rr.Digest.Req || len(rr.Spans[0].Stages) != 0 {
			t.Fatalf("after the wrap, request %d holds %d spans (first %+v)", rr.Digest.Req, len(rr.Spans), rr.Spans[0])
		}
	}
}

func testSources(reg *telemetry.Registry) Sources {
	return Sources{
		Snapshot: func() *telemetry.Snapshot { return reg.Snapshot() },
		Devices: func() []telemetry.DeviceStatus {
			return []telemetry.DeviceStatus{{Label: "dev0", Healthy: false}, {Label: "dev1", Healthy: true}}
		},
		Events: func(n int) []telemetry.Event {
			return []telemetry.Event{{Type: telemetry.EventFailover, Device: "dev0", Req: 9, Detail: "test"}}
		},
		Config: func() *Config { return &Config{Name: "P9", Devices: 2, TableMode: 1, Labels: []string{"dev0", "dev1"}} },
		Health: func() *Health { return &Health{HealthyDevices: 1, TotalDevices: 2} },
	}
}

// TestPostmortemBundleCompleteness triggers a bundle and checks every
// section kind appears and parses, and that the retained request's
// span made it in with its ReqID intact.
func TestPostmortemBundleCompleteness(t *testing.T) {
	dir := t.TempDir()
	r := New(dir)
	reg := telemetry.NewRegistry()
	reg.Counter("nx.requests").Add(5)
	r.SetSources(testSources(reg))

	d := okDigest(9, 100)
	d.Attempts = 2
	r.Complete(d, []telemetry.Span{{Op: "compress", PID: 1, ReqID: 9, Hop: 1}})
	r.Complete(okDigest(10, 100), nil)

	path, err := r.TriggerPostmortem("test trigger")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	kinds := map[string]int{}
	var spanReq uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ln struct {
			Kind   string `json:"kind"`
			Reason string `json:"reason"`
			Seq    uint64 `json:"seq"`
			Span   *struct {
				Req uint64 `json:"req"`
				Hop int    `json:"hop"`
			} `json:"span"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bundle line not JSON: %v", err)
		}
		kinds[ln.Kind]++
		if ln.Kind == "meta" {
			if ln.Reason != "test trigger" || ln.Seq != 2 {
				t.Errorf("meta = %+v", ln)
			}
		}
		if ln.Kind == "span" {
			spanReq = ln.Span.Req
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"meta", "config", "health", "device", "digest", "span", "event", "snapshot"} {
		if kinds[k] == 0 {
			t.Errorf("bundle missing kind %q (have %v)", k, kinds)
		}
	}
	if kinds["digest"] != 2 || kinds["device"] != 2 {
		t.Errorf("counts: %v", kinds)
	}
	if spanReq != 9 {
		t.Errorf("retained span req = %d, want 9", spanReq)
	}
	if n := r.PostmortemCount(); n != 1 {
		t.Errorf("PostmortemCount = %d", n)
	}
	if _, reason := r.LastTrigger(); reason != "test trigger" {
		t.Errorf("LastTrigger reason = %q", reason)
	}
}

// TestBundleRoundTrip writes a bundle with TriggerPostmortem and reads it
// back with ReadBundle: every section equals what went in.
func TestBundleRoundTrip(t *testing.T) {
	r := New(t.TempDir())
	reg := telemetry.NewRegistry()
	reg.Counter("nx.requests").Add(5)
	srcs := testSources(reg)
	at := time.Date(2026, 3, 4, 5, 6, 7, 8, time.UTC)
	events := []telemetry.Event{
		{Seq: 1, Time: at, Type: telemetry.EventFailover, Req: 9, Tenant: 3, Device: "dev0", Detail: "test"},
		{Seq: 2, Time: at.Add(time.Millisecond), Type: telemetry.EventShed, Tenant: 4},
	}
	srcs.Events = func(int) []telemetry.Event { return events }
	r.SetSources(srcs)
	for req := uint64(1); req <= 3; req++ {
		now := time.Now()
		s := telemetry.Span{Op: "compress-dht", PID: 7, Window: 1, Start: now, End: now.Add(time.Millisecond)}
		s.ReqID, s.Hop, s.Tenant, s.Priority, s.CC = req, int(req), 5, "batch", "ok"
		s.RecordStage(telemetry.StageSubmit, now, now.Add(time.Microsecond), 0)
		s.RecordPipeline(now, now.Add(time.Millisecond), []telemetry.PipelineStage{
			{Stage: telemetry.StageSetup, Cycles: 10}, {Stage: telemetry.StageLZ, Cycles: 800},
		})
		d := okDigest(req, 100)
		d.Outcome = telemetry.OutcomeDegraded
		r.Complete(d, []telemetry.Span{s})
	}
	path, err := r.TriggerPostmortem("round trip")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := ReadBundle(f)
	if err != nil {
		t.Fatal(err)
	}

	if at, reason := r.LastTrigger(); !b.Time.Equal(at) || b.Reason != reason || b.Ordinal != 1 || b.Seq != 3 {
		t.Errorf("meta: %v %q #%d seq %d, want %v %q #1 seq 3", b.Time, b.Reason, b.Ordinal, b.Seq, at, reason)
	}
	if !reflect.DeepEqual(b.Config, srcs.Config()) || !reflect.DeepEqual(b.Health, srcs.Health()) {
		t.Errorf("config %+v health %+v, want %+v %+v", b.Config, b.Health, srcs.Config(), srcs.Health())
	}
	if !reflect.DeepEqual(b.Devices, srcs.Devices()) {
		t.Errorf("devices %+v, want %+v", b.Devices, srcs.Devices())
	}
	if !reflect.DeepEqual(b.Digests, r.Digests(0)) {
		t.Errorf("digests %+v, want %+v", b.Digests, r.Digests(0))
	}
	var spans []telemetry.SpanRecord
	for _, rr := range r.RetainedRequests() {
		for _, s := range rr.Spans {
			spans = append(spans, s.Record())
		}
	}
	if len(spans) != 3 || !reflect.DeepEqual(b.Spans, spans) {
		t.Errorf("spans %+v, want %+v", b.Spans, spans)
	}
	for i, s := range b.Spans {
		var stages []string
		for _, st := range s.Stages {
			stages = append(stages, fmt.Sprintf("%s/%d", st.Stage, st.Cycles))
		}
		if s.Req != uint64(i+1) || s.Hop != i+1 || strings.Join(stages, " ") != "submit/0 setup/10 lz/800" {
			t.Errorf("span %d: req %d hop %d stages %v", i, s.Req, s.Hop, stages)
		}
	}
	if !reflect.DeepEqual(b.Events, events) {
		t.Errorf("events %+v, want %+v", b.Events, events)
	}
	if b.Snapshot == nil || b.Snapshot.Counter("nx.requests", "") != 5 {
		t.Errorf("snapshot %+v", b.Snapshot)
	}
}

// TestPostmortemDirBounded triggers more bundles than maxBundles and
// checks the oldest are pruned.
func TestPostmortemDirBounded(t *testing.T) {
	dir := t.TempDir()
	r := New(dir)
	var last string
	for i := 0; i < maxBundles+3; i++ {
		p, err := r.TriggerPostmortem(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		last = p
		time.Sleep(time.Millisecond) // distinct UnixNano names
	}
	got := r.Bundles()
	if len(got) != maxBundles {
		t.Fatalf("dir holds %d bundles, want %d: %v", len(got), maxBundles, got)
	}
	if got[len(got)-1] != last {
		t.Fatalf("newest bundle pruned: kept %v, last written %s", got, last)
	}
}

func TestTriggerWithoutDir(t *testing.T) {
	r := New("")
	path, err := r.TriggerPostmortem("memory only")
	if err != nil || path != "" {
		t.Fatalf("TriggerPostmortem() = (%q, %v), want (\"\", nil)", path, err)
	}
	if r.PostmortemCount() != 1 {
		t.Fatal("memory-only trigger did not count")
	}
}

// TestHandler exercises the /debug/postmortems listing and bundle fetch,
// including traversal rejection.
func TestHandler(t *testing.T) {
	dir := t.TempDir()
	r := New(dir)
	r.Complete(okDigest(1, 100), nil)
	if _, err := r.TriggerPostmortem("handler test"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/postmortems")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Count   int64 `json:"count"`
		Bundles []struct {
			Name string `json:"name"`
			Size int64  `json:"size"`
		} `json:"bundles"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if listing.Count != 1 || len(listing.Bundles) != 1 || listing.Bundles[0].Size <= 0 {
		t.Fatalf("listing = %+v", listing)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/postmortems/" + listing.Bundles[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	body := bufio.NewScanner(resp.Body)
	var lines int
	for body.Scan() {
		lines++
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || lines < 2 {
		t.Fatalf("bundle fetch: status %d, %d lines", resp.StatusCode, lines)
	}

	for _, bad := range []string{"/debug/postmortems/../secret", "/debug/postmortems/nope.jsonl"} {
		resp, err := srv.Client().Get(srv.URL + strings.ReplaceAll(bad, "..", "%2e%2e"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("GET %s: status %d, want 404", bad, resp.StatusCode)
		}
	}

	// Directory contents stay confined to bundle files.
	if err := os.WriteFile(filepath.Join(dir, "unrelated.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Client().Get(srv.URL + "/debug/postmortems/unrelated.txt")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("non-bundle file served: status %d", resp.StatusCode)
	}
}

// TestLastTriggerOnlyOnceFired: a recorder that never fired has no
// last_trigger in its Status or its /debug/postmortems listing (a zero
// time.Time would read as year 1), and one that has fired has a real one
// in both.
func TestLastTriggerOnlyOnceFired(t *testing.T) {
	r := New(t.TempDir())
	documents := func() map[string]map[string]json.RawMessage {
		status, err := json.Marshal(r.Status())
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/postmortems", nil))
		docs := map[string]map[string]json.RawMessage{}
		for name, body := range map[string][]byte{"Status": status, "/debug/postmortems": rec.Body.Bytes()} {
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(body, &keys); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			docs[name] = keys
		}
		return docs
	}
	for name, keys := range documents() {
		if v, ok := keys["last_trigger"]; ok {
			t.Errorf("%s of a recorder that never fired: last_trigger %s", name, v)
		}
	}
	if _, err := r.TriggerPostmortem("fired"); err != nil {
		t.Fatal(err)
	}
	for name, keys := range documents() {
		var at time.Time
		if err := json.Unmarshal(keys["last_trigger"], &at); err != nil || at.IsZero() {
			t.Errorf("%s after a trigger: last_trigger %s (%v)", name, keys["last_trigger"], err)
		}
	}
}

// TestCloseStopsIntake verifies a closed recorder drops work instead of
// corrupting state.
func TestCloseStopsIntake(t *testing.T) {
	r := New("")
	r.Complete(okDigest(1, 100), nil)
	r.Close()
	if seq := r.Complete(okDigest(2, 100), nil); seq != 0 {
		t.Fatalf("Complete after Close returned seq %d", seq)
	}
	if r.Seq() != 1 {
		t.Fatalf("Seq moved after Close: %d", r.Seq())
	}
}
