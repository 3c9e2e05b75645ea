package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/telemetry"
	"nxzip/internal/testutil"
)

// --- event bus ---

// The bus is telemetry's; its tests stay beside the server that streams
// it, with its pin in pin_test.go. busTail is how many recent events it
// keeps.
const busTail = 256

func TestBusPublishSubscribe(t *testing.T) {
	b := telemetry.NewBus()
	sub := b.Subscribe(8)
	defer sub.Close()
	for i := 0; i < 5; i++ {
		b.Publish(telemetry.Event{Type: telemetry.EventQuarantine, Device: fmt.Sprintf("chip%d", i)})
	}
	for i := 0; i < 5; i++ {
		select {
		case e := <-sub.C():
			if e.Seq != uint64(i+1) {
				t.Fatalf("event %d: seq %d, want %d", i, e.Seq, i+1)
			}
			if e.Device != fmt.Sprintf("chip%d", i) {
				t.Fatalf("event %d: device %q", i, e.Device)
			}
			if e.Time.IsZero() {
				t.Fatalf("event %d: zero timestamp", i)
			}
		case <-time.After(time.Second):
			t.Fatalf("event %d never delivered", i)
		}
	}
	if got := b.Published(); got != 5 {
		t.Fatalf("Published = %d, want 5", got)
	}
	if got := b.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
}

func TestBusDropsWhenSubscriberFull(t *testing.T) {
	b := telemetry.NewBus()
	sub := b.Subscribe(2)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		b.Publish(telemetry.Event{Type: telemetry.EventProbe})
	}
	if got := sub.Dropped(); got != 8 {
		t.Fatalf("subscription Dropped = %d, want 8", got)
	}
	if got := b.Dropped(); got != 8 {
		t.Fatalf("bus Dropped = %d, want 8", got)
	}
	// The two buffered events still deliver.
	if e := <-sub.C(); e.Seq != 1 {
		t.Fatalf("first delivered seq = %d, want 1", e.Seq)
	}
}

func TestBusTailWraps(t *testing.T) {
	b := telemetry.NewBus()
	total := busTail + 50
	for i := 0; i < total; i++ {
		b.Publish(telemetry.Event{Type: telemetry.EventFailover, Detail: fmt.Sprintf("e%d", i)})
	}
	tail := b.Tail(10)
	if len(tail) != 10 {
		t.Fatalf("Tail(10) returned %d events", len(tail))
	}
	for i, e := range tail {
		wantSeq := uint64(total - 10 + i + 1)
		if e.Seq != wantSeq {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, e.Seq, wantSeq)
		}
	}
	if got := b.Tail(2 * busTail); len(got) != busTail {
		t.Fatalf("oversized Tail returned %d, want %d", len(got), busTail)
	}
}

func TestBusNilSafe(t *testing.T) {
	var b *telemetry.Bus
	b.Publish(telemetry.Event{Type: telemetry.EventFallback}) // must not panic
	if b.Published() != 0 || b.Dropped() != 0 || b.Tail(5) != nil {
		t.Fatal("nil bus accessors not zero")
	}
	sub := b.Subscribe(1)
	sub.Close()
	sub.Close() // idempotent
}

func TestBusConcurrentPublishSubscribeClose(t *testing.T) {
	b := telemetry.NewBus()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Publish(telemetry.Event{Type: telemetry.EventEngineHang})
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := b.Subscribe(4)
			for i := 0; i < 20; i++ {
				select {
				case <-sub.C():
				case <-time.After(10 * time.Millisecond):
				}
			}
			sub.Close()
		}()
	}
	wg.Wait()
	if got := b.Published(); got != 800 {
		t.Fatalf("Published = %d, want 800", got)
	}
}

// lockedBuffer synchronizes test reads against the EventLog goroutine's
// writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestEventLogWritesJSONL(t *testing.T) {
	b := telemetry.NewBus()
	var buf lockedBuffer
	log := telemetry.NewEventLog(b, &buf, 64)
	b.Publish(telemetry.Event{Type: telemetry.EventQuarantine, Device: "chip1", Detail: "three strikes"})
	b.Publish(telemetry.Event{Type: telemetry.EventReadmit, Device: "chip1"})
	// Drain: wait for the log goroutine to consume both before closing.
	deadline := time.Now().Add(time.Second)
	for strings.Count(buf.String(), "\n") < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	dropped, err := log.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var e telemetry.Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if e.Type != telemetry.EventQuarantine || e.Device != "chip1" {
		t.Fatalf("decoded %+v", e)
	}
}

// --- prometheus exposition ---

func testSnapshot() *telemetry.Snapshot {
	s := &telemetry.Snapshot{
		Counters: []telemetry.CounterSnapshot{
			{Name: "nx.requests", Value: 100},
			{Name: "nx.requests", Label: "drawer0/cp1", Value: 60},
			{Name: "vas.pastes", Value: 123},
		},
		Gauges: []telemetry.GaugeSnapshot{
			{Name: "topology.healthy_devices", Value: 3, Max: 4},
			{Name: "vas.fifo_occupancy", Label: `odd"label\n`, Value: 7, Max: 12},
		},
		Histograms: []telemetry.HistogramSnapshot{
			{Name: "nx.queue_wait_us", Count: 10, Sum: 55.5, Mean: 5.55, P50: 5, P95: 9, P99: 9.9},
		},
	}
	s.Sort()
	return s
}

func TestPromRoundTrip(t *testing.T) {
	snap := testSnapshot()
	var buf bytes.Buffer
	if err := WriteProm(&buf, snap); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	series, err := ParseProm(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ParseProm: %v\n%s", err, buf.String())
	}
	checks := map[string]float64{
		PromSeries("nx.requests", ""):                   100,
		PromSeries("nx.requests", "drawer0/cp1"):        60,
		PromSeries("vas.pastes", ""):                    123,
		PromSeries("topology.healthy_devices", ""):      3,
		"topology_healthy_devices_max":                  4,
		PromSeries("vas.fifo_occupancy", `odd"label\n`): 7,
		"nx_queue_wait_us_p99":                          9.9,
		`nx_queue_wait_us_bucket{le="+Inf"}`:            10,
		"nx_queue_wait_us_sum":                          55.5,
		"nx_queue_wait_us_count":                        10,
	}
	for key, want := range checks {
		got, ok := series[key]
		if !ok {
			t.Errorf("series %s missing; exposition:\n%s", key, buf.String())
			continue
		}
		if got != want {
			t.Errorf("series %s = %v, want %v", key, got, want)
		}
	}
}

func TestPromTypeHeadersOncePerFamily(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			seen[line]++
		}
	}
	for header, n := range seen {
		if n != 1 {
			t.Errorf("%q emitted %d times", header, n)
		}
	}
	if seen["# TYPE nx_requests counter"] != 1 || seen["# TYPE nx_queue_wait_us histogram"] != 1 ||
		seen["# TYPE nx_queue_wait_us_p99 gauge"] != 1 {
		t.Fatalf("expected families missing: %v", seen)
	}
}

// TestPromHistogramBuckets drives a live registry histogram through the
// exposition and back: cumulative bucket counts must round-trip, agree
// with _count at +Inf, and be monotone non-decreasing over the ladder.
func TestPromHistogramBuckets(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("nx.queue_wait_us")
	values := []float64{0.5, 3, 3, 40, 700, 9e3, 2e5, 6e8}
	for _, v := range values {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, reg.Snapshot()); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	series, err := ParseProm(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ParseProm: %v\n%s", err, buf.String())
	}
	bounds := telemetry.BucketBounds()
	prev := 0.0
	for _, b := range bounds {
		key := fmt.Sprintf(`nx_queue_wait_us_bucket{le="%s"}`, promFloat(b))
		got, ok := series[key]
		if !ok {
			t.Fatalf("bucket %s missing; exposition:\n%s", key, buf.String())
		}
		if got < prev {
			t.Fatalf("bucket %s = %v decreased below %v", key, got, prev)
		}
		want := 0
		for _, v := range values {
			if v <= b {
				want++
			}
		}
		if got != float64(want) {
			t.Fatalf("bucket %s = %v, want %d", key, got, want)
		}
		prev = got
	}
	if inf := series[`nx_queue_wait_us_bucket{le="+Inf"}`]; inf != float64(len(values)) {
		t.Fatalf("+Inf bucket = %v, want %d", inf, len(values))
	}
	if series["nx_queue_wait_us_count"] != float64(len(values)) {
		t.Fatalf("count = %v", series["nx_queue_wait_us_count"])
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, in := range []string{"noval", "name{unclosed 3"} {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("ParseProm(%q) accepted malformed input", in)
		}
	}
}

func TestPromNameFolding(t *testing.T) {
	if got := promName("nx.engine.stage_cycles"); got != "nx_engine_stage_cycles" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("9lives"); got != "_lives" {
		t.Fatalf("leading digit: %q", got)
	}
}

// --- SLO rules ---

func snapWith(fallbacks, requests int64, p99 float64, obsCount int64) *telemetry.Snapshot {
	s := &telemetry.Snapshot{
		Counters: []telemetry.CounterSnapshot{
			{Name: "nx.requests", Value: requests},
			{Name: "nxzip.fallbacks", Value: fallbacks},
		},
		Histograms: []telemetry.HistogramSnapshot{
			{Name: "nx.queue_wait_us", Count: obsCount, P99: p99},
		},
	}
	s.Sort()
	return s
}

func TestSLOHealthyNode(t *testing.T) {
	in := Inputs{Snap: snapWith(1, 99, 50, 99), HealthyDevices: 4, Devices: 4}
	rep := Evaluate(in, DefaultRules())
	if !rep.Healthy {
		t.Fatalf("healthy node evaluated unhealthy: %+v", rep)
	}
	if len(rep.Rules) != 4 {
		t.Fatalf("rule count %d", len(rep.Rules))
	}
}

func TestSLOMinHealthyFraction(t *testing.T) {
	r := MinHealthyFraction(0.5)
	if ok, _, _ := r.Check(Inputs{HealthyDevices: 1, Devices: 4}); ok {
		t.Fatal("1/4 healthy passed a 0.5 floor")
	}
	if ok, v, _ := r.Check(Inputs{HealthyDevices: 2, Devices: 4}); !ok || v != 0.5 {
		t.Fatalf("2/4 healthy: ok=%v v=%v", ok, v)
	}
	if ok, _, _ := r.Check(Inputs{Devices: 0}); ok {
		t.Fatal("zero devices passed")
	}
}

func TestSLOFallbackRatio(t *testing.T) {
	r := MaxFallbackRatio(0.10)
	if ok, _, _ := r.Check(Inputs{Snap: snapWith(50, 50, 0, 0)}); ok {
		t.Fatal("50% degraded passed a 10% bound")
	}
	if ok, _, _ := r.Check(Inputs{Snap: snapWith(0, 0, 0, 0)}); !ok {
		t.Fatal("idle node failed")
	}
	if ok, _, _ := r.Check(Inputs{}); !ok {
		t.Fatal("nil snapshot failed")
	}
}

func TestSLOHistogramP99(t *testing.T) {
	r := MaxHistogramP99("nx.queue_wait_us", 100)
	if ok, v, _ := r.Check(Inputs{Snap: snapWith(0, 1, 500, 10)}); ok || v != 500 {
		t.Fatalf("p99 500 passed bound 100 (v=%v)", v)
	}
	if ok, _, _ := r.Check(Inputs{Snap: snapWith(0, 1, 0, 0)}); !ok {
		t.Fatal("empty histogram failed")
	}
}

// --- windows / sampler ---

func TestSamplerWindows(t *testing.T) {
	var mu sync.Mutex
	requests, inBytes := int64(0), int64(0)
	snap := func() *telemetry.Snapshot {
		mu.Lock()
		defer mu.Unlock()
		s := &telemetry.Snapshot{Counters: []telemetry.CounterSnapshot{
			{Name: "nx.requests", Value: requests},
			{Name: "nx.in_bytes", Value: inBytes},
		}}
		s.Sort()
		return s
	}
	s := NewSampler(snap)
	s.Tick() // baseline
	mu.Lock()
	requests, inBytes = 10, 1<<20
	mu.Unlock()
	time.Sleep(5 * time.Millisecond)
	w := s.Tick()
	if w.Requests != 10 || w.InBytes != 1<<20 {
		t.Fatalf("window deltas: %+v", w)
	}
	if w.ReqPerSec <= 0 || w.GBs <= 0 {
		t.Fatalf("window rates not derived: %+v", w)
	}
	// Ring bounds: ticks beyond ringCap evict the oldest.
	for i := 0; i < ringCap+6; i++ {
		s.Tick()
	}
	if got := len(s.Windows()); got != ringCap {
		t.Fatalf("ring length %d, want %d", got, ringCap)
	}
	if last := s.Last(); last.Requests != 0 {
		t.Fatalf("idle window carried requests: %+v", last)
	}
}

// TestServerWatcherTicksWindows: with no poller, the server's watcher
// takes a window every interval and judges burn against it, and Close
// leaves no goroutine behind.
func TestServerWatcherTicksWindows(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := NewServer(Options{
		Addr:           "127.0.0.1:0",
		Snapshot:       func() *telemetry.Snapshot { return &telemetry.Snapshot{} },
		SampleInterval: time.Millisecond,
	})
	if srv.BurnAlerts() != nil {
		t.Fatal("burn alerts before the first tick")
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	// One watcher goroutine takes a window and then judges burn, tick by
	// tick: the third window (Start takes the first) is taken after the
	// first tick's burn evaluation.
	for deadline := time.Now().Add(time.Second); len(srv.sampler.Windows()) < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("%d windows a second after Start", len(srv.sampler.Windows()))
		}
		time.Sleep(time.Millisecond)
	}
	var doc StatusDoc
	resp, err := http.Get("http://" + srv.Addr() + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Windows) < 2 {
		t.Fatalf("/snapshot shows %d windows, want at least 2", len(doc.Windows))
	}
	if got := len(srv.BurnAlerts()); got != 4 {
		t.Fatalf("%d burn alerts after the first tick, want all four SLO/speed pairs", got)
	}
	srv.Close()
	testutil.GoroutinesBack(t, base, "after Close")
}

// --- delta (telemetry) as consumed by obs ---

func TestSnapshotDelta(t *testing.T) {
	prev := &telemetry.Snapshot{
		Counters:   []telemetry.CounterSnapshot{{Name: "nx.requests", Value: 10}},
		Histograms: []telemetry.HistogramSnapshot{{Name: "h", Count: 4, Sum: 40}},
	}
	cur := &telemetry.Snapshot{
		Counters: []telemetry.CounterSnapshot{
			{Name: "nx.requests", Value: 25},
			{Name: "nx.new_counter", Value: 7},
		},
		Gauges:     []telemetry.GaugeSnapshot{{Name: "g", Value: 3, Max: 9}},
		Histograms: []telemetry.HistogramSnapshot{{Name: "h", Count: 10, Sum: 100}},
	}
	prev.Sort()
	cur.Sort()
	d := cur.Delta(prev)
	if got := d.Counter("nx.requests", ""); got != 15 {
		t.Fatalf("counter delta %d", got)
	}
	if got := d.Counter("nx.new_counter", ""); got != 7 {
		t.Fatalf("absent-in-prev counter %d", got)
	}
	if got := d.Gauge("g", ""); got != 3 {
		t.Fatalf("gauge carried %d", got)
	}
	h, ok := d.Histogram("h", "")
	if !ok || h.Count != 6 || h.Sum != 60 || h.Mean != 10 {
		t.Fatalf("histogram delta %+v ok=%v", h, ok)
	}
	// Nil prev = full values.
	full := cur.Delta(nil)
	if got := full.Counter("nx.requests", ""); got != 25 {
		t.Fatalf("nil-prev delta %d", got)
	}
}

// --- server endpoints ---

func startTestServer(t *testing.T, bus *telemetry.Bus, healthy, total int, snap func() *telemetry.Snapshot) *Server {
	t.Helper()
	if snap == nil {
		snap = testSnapshot
	}
	srv := NewServer(Options{
		Addr:     "127.0.0.1:0",
		Name:     "test-node",
		Snapshot: snap,
		Devices: func() []telemetry.DeviceStatus {
			return []telemetry.DeviceStatus{{Label: "chip0", Healthy: true, BusyCycles: 50, TotalCycles: 100, Util: 0.5}}
		},
		Health: func() (int, int) { return healthy, total },
		Bus:    bus,
	})
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// pinQuotaTable is the admission gate's tenant table the pinned
// documents join: tenant 5 active and one registered tenant idle.
func pinQuotaTable() []admission.TenantStatus {
	return []admission.TenantStatus{
		{ID: 5, Weight: 2, Inflight: 1, Share: 1, Active: true},
		{ID: 9, Weight: 1},
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	srv := startTestServer(t, nil, 4, 4, nil)
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	series, err := ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("ParseProm: %v", err)
	}
	if series[PromSeries("nx.requests", "")] != 100 {
		t.Fatalf("nx_requests = %v", series[PromSeries("nx.requests", "")])
	}
}

func TestServerSnapshotEndpoint(t *testing.T) {
	bus := telemetry.NewBus()
	bus.Publish(telemetry.Event{Type: telemetry.EventQuarantine, Device: "chip0"})
	srv := startTestServer(t, bus, 4, 4, nil)
	resp, err := http.Get("http://" + srv.Addr() + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if doc.Name != "test-node" || !doc.Healthy {
		t.Fatalf("doc header: %+v", doc)
	}
	if len(doc.Devices) != 1 || doc.Devices[0].Label != "chip0" {
		t.Fatalf("devices: %+v", doc.Devices)
	}
	if len(doc.Events) != 1 || doc.Events[0].Type != telemetry.EventQuarantine {
		t.Fatalf("events: %+v", doc.Events)
	}
	if doc.Totals.Requests != 100 {
		t.Fatalf("totals: %+v", doc.Totals)
	}
	if doc.Metrics == nil {
		t.Fatal("metrics snapshot missing")
	}
}

func TestServerHealthzFlips(t *testing.T) {
	healthy := 4
	var mu sync.Mutex
	srv := NewServer(Options{
		Addr:     "127.0.0.1:0",
		Snapshot: func() *telemetry.Snapshot { return &telemetry.Snapshot{} },
		Health: func() (int, int) {
			mu.Lock()
			defer mu.Unlock()
			return healthy, 4
		},
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func() (int, HealthReport) {
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep HealthReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rep
	}
	if code, rep := get(); code != http.StatusOK || !rep.Healthy {
		t.Fatalf("healthy: code %d rep %+v", code, rep)
	}
	mu.Lock()
	healthy = 1 // 1/4 < 0.5
	mu.Unlock()
	code, rep := get()
	if code != http.StatusServiceUnavailable || rep.Healthy {
		t.Fatalf("majority-quarantine: code %d rep %+v", code, rep)
	}
	mu.Lock()
	healthy = 3
	mu.Unlock()
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("recovered: code %d", code)
	}
}

// TestServerCloseWaitsForCallbacks: a device count that flips between
// 1/1 and 0/1 healthy on every 1 ms tick makes every evaluation a
// transition, and the callback sleeps, so
// Close nearly always lands inside one. When Close returns, no callback
// may still run, and none may start afterwards (in the bundle directory
// a postmortem trigger writes into, for instance).
func TestServerCloseWaitsForCallbacks(t *testing.T) {
	for round := 0; round < 5; round++ {
		var flip, running, started atomic.Int64
		var closed atomic.Bool
		var late atomic.Int64
		srv := NewServer(Options{
			Addr:     "127.0.0.1:0",
			Snapshot: func() *telemetry.Snapshot { return &telemetry.Snapshot{} },
			Health: func() (int, int) {
				return int(flip.Add(1) % 2), 1
			},
			SampleInterval: time.Millisecond,
			OnTransition: func(bool, HealthReport) {
				if closed.Load() {
					late.Add(1)
				}
				running.Add(1)
				started.Add(1)
				time.Sleep(3 * time.Millisecond)
				running.Add(-1)
			},
		})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); started.Load() < 3; {
			if time.Now().After(deadline) {
				t.Fatal("the flipping health fired no transitions")
			}
			time.Sleep(time.Millisecond)
		}
		srv.Close()
		closed.Store(true)
		if n := running.Load(); n != 0 {
			t.Fatalf("round %d: %d callbacks still running when Close returned", round, n)
		}
		time.Sleep(20 * time.Millisecond)
		if n := late.Load(); n != 0 {
			t.Fatalf("round %d: %d callbacks started after Close returned", round, n)
		}
	}
}

func TestServerEventsStream(t *testing.T) {
	bus := telemetry.NewBus()
	srv := startTestServer(t, bus, 4, 4, nil)
	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		// Give the handler a moment to subscribe before publishing.
		time.Sleep(20 * time.Millisecond)
		bus.Publish(telemetry.Event{Type: telemetry.EventFailover, Device: "chip2", Detail: "re-dispatching"})
	}()
	dec := json.NewDecoder(resp.Body)
	var e telemetry.Event
	if err := dec.Decode(&e); err != nil {
		t.Fatalf("stream decode: %v", err)
	}
	if e.Type != telemetry.EventFailover || e.Device != "chip2" {
		t.Fatalf("streamed %+v", e)
	}
}

func TestServerEventsWithoutBus(t *testing.T) {
	srv := startTestServer(t, nil, 4, 4, nil)
	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-bus /events status %d", resp.StatusCode)
	}
}

// --- status rendering ---

func TestRenderTextSmoke(t *testing.T) {
	cur := &StatusDoc{
		Name: "render-node", Time: time.Unix(1000, 0), Healthy: false,
		Health: HealthReport{Rules: []RuleResult{{Name: "healthy-devices", Expr: "x >= 0.5", OK: false, Detail: "1/4 healthy"}}},
		Devices: []telemetry.DeviceStatus{
			{Label: "chip0", Healthy: true, BusyCycles: 75, TotalCycles: 100, Util: 0.75},
			{Label: "chip1", Healthy: false, Quarantines: 2},
		},
		Totals:  Totals{Requests: 42, InBytes: 1 << 20},
		Windows: []Window{{ReqPerSec: 10, GBs: 0.5, QueueP99: 120}, {ReqPerSec: 12, GBs: 0.6, QueueP99: 130}},
		Events:  []telemetry.Event{{Seq: 1, Type: telemetry.EventQuarantine, Device: "chip1", Detail: "three strikes"}},
	}
	prev := &StatusDoc{Devices: []telemetry.DeviceStatus{{Label: "chip0", BusyCycles: 25, TotalCycles: 50}}}
	var buf bytes.Buffer
	RenderText(&buf, prev, cur)
	out := buf.String()
	for _, want := range []string{"render-node", "UNHEALTHY", "SLO FAIL", "chip0", "QUAR", "quarantine", "three strikes"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// Delta utilization: (75-25)/(100-50) = 100%, not the lifetime 75%.
	if !strings.Contains(out, "100.0") {
		t.Errorf("expected delta-based utilization 100.0:\n%s", out)
	}
	// First frame (no prev) falls back to lifetime Util without panicking.
	buf.Reset()
	RenderText(&buf, nil, cur)
	if !strings.Contains(buf.String(), "75.0") {
		t.Errorf("lifetime utilization missing:\n%s", buf.String())
	}
}

func TestTotalsFromSnapshot(t *testing.T) {
	tot := TotalsFromSnapshot(testSnapshot())
	if tot.Requests != 100 {
		t.Fatalf("totals %+v", tot)
	}
	if z := TotalsFromSnapshot(nil); z != (Totals{}) {
		t.Fatalf("nil snapshot totals %+v", z)
	}
}
