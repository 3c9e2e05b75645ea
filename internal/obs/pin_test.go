package obs

// pin_test.go holds the observing surfaces' outputs still: the JSON key
// sets of /snapshot, /tenants and /healthz over a server fed a fixed
// traffic pattern, the Prometheus exposition and the nxtop frame of
// fixed inputs (byte for byte, against testdata), and the order the
// bounded rings hand back across a wrap. Regenerate the golden files
// with go test ./internal/obs -run Pinned -update.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nxzip/internal/telemetry"
)

var updatePins = flag.Bool("update", false, "rewrite the obs golden files from the current code")

// pinGolden compares got with testdata/name, or rewrites it under -update.
func pinGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updatePins {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the pinned output:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// pinTraffic is a registry that one bump fills with one round of a fixed
// traffic pattern: node counters, an admission gate that sheds most of
// one class, a queue-wait histogram with a share over QueueBudgetUS, and
// tenant-plane rows for tenant 5 and the overflow label.
type pinTraffic struct {
	mu    sync.Mutex
	reg   *telemetry.Registry
	round int
}

func newPinTraffic() *pinTraffic { return &pinTraffic{reg: telemetry.NewRegistry()} }

func (p *pinTraffic) bump() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.round++
	r := p.reg
	r.Counter("nx.requests").Add(10)
	r.Counter("nx.in_bytes").Add(10_000)
	r.Counter("nx.out_bytes").Add(4_000)
	r.Counter("nxzip.fallbacks").Inc()
	r.Counter("nxzip.redispatches").Inc()
	r.CounterVec("topology.quarantines").With("chip0").Inc()
	r.CounterVec("admission.admitted").With("interactive").Add(10)
	r.CounterVec("admission.shed").With("batch").Add(50)
	r.GaugeVec("vas.fifo_occupancy").With("chip0").Set(int64(p.round % 7))
	req := uint64(p.round * 100)
	for i := 0; i < 10; i++ {
		v := float64(10 + 30*i)
		if i == 9 {
			v = 2 * QueueBudgetUS
		}
		req++
		r.Histogram("nx.queue_wait_us").ObserveExemplar(v, req)
		r.HistogramVec("nxzip.tenant.queue_wait_us").With("t5").ObserveExemplar(v, req)
		r.HistogramVec("nxzip.tenant.latency_us").With("t5/interactive/ok").ObserveExemplar(v+5, req)
	}
	for i := 0; i < 50; i++ {
		req++
		r.HistogramVec("nxzip.tenant.latency_us").With("t5/batch/shed").ObserveExemplar(1, req)
	}
	r.HistogramVec("nxzip.tenant.latency_us").With("tover/background/ok").Observe(70)
	r.HistogramVec("nxzip.tenant.queue_wait_us").With("tover").Observe(3)
}

func (p *pinTraffic) snapshot() *telemetry.Snapshot {
	p.bump()
	return p.reg.Snapshot()
}

// keyPaths adds every object key of a decoded JSON document to into, as
// a dotted path with "[]" for array elements (the union over elements).
func keyPaths(v any, prefix string, into map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			p := prefix + "." + k
			into[p] = true
			keyPaths(e, p, into)
		}
	case []any:
		for _, e := range x {
			keyPaths(e, prefix+"[]", into)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// getDoc fetches path from srv and decodes it generically.
func getDoc(t *testing.T, srv *Server, path string) map[string]any {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return doc
}

// pinFlight is a flight section with every field set.
func pinFlight() *FlightStatus {
	return &FlightStatus{
		Requests: 4096, Retained: 3, P99TotalUS: 900, P99QueueUS: 300, Postmortems: 2,
		LastTrigger: time.Unix(1_700_000_000, 0).UTC(), LastReason: "slo unhealthy: shed-ratio",
		Slowest: []telemetry.Digest{{
			Seq: 4096, Req: 77, Op: "compress-dht", Codec: "deflate", Device: "chip0",
			Tenant: 5, Priority: "batch", InBytes: 4096, OutBytes: 1024, QueueUS: 250,
			TotalUS: 1200, EngineCycles: 9000, Attempts: 2, Outcome: telemetry.OutcomeDegraded,
		}},
	}
}

// pinAdmission is an admission section with every field set.
func pinAdmission() *AdmissionStatus {
	return &AdmissionStatus{
		Level: "shed-batch", Pressure: 1.25, Inflight: 12, MaxInflight: 32, Queued: 3, Evicted: 9,
		Classes: []AdmissionClassStatus{{Class: "interactive", Admitted: 10, Shed: 0, Degraded: 1}},
	}
}

// TestDocumentKeySetsPinned pins the key sets of /snapshot, /tenants
// and /healthz once the sampler has windows with traffic and the burn
// evaluator fires with tenant 5 as the top offender.
func TestDocumentKeySetsPinned(t *testing.T) {
	traffic := newPinTraffic()
	bus := NewBus()
	bus.Publish(Event{Type: EventShed, Req: 7, Tenant: 5, Device: "chip0", Detail: "batch request shed"})
	srv := NewServer(Options{
		Addr:     "127.0.0.1:0",
		Name:     "pin-node",
		Snapshot: traffic.snapshot,
		Devices: func() []DeviceStatus {
			return []DeviceStatus{{Label: "chip0", Healthy: true, Draining: true, Dispatched: 3, Load: 1,
				Occupancy: 2, Credits: 5, Requests: 10, InBytes: 100, OutBytes: 50,
				BusyCycles: 50, TotalCycles: 100, Quarantines: 1, Util: 0.5}}
		},
		Health:         func() (int, int) { return 1, 1 },
		Bus:            bus,
		SampleInterval: 2 * time.Millisecond,
		Flight:         pinFlight,
		Admission:      pinAdmission,
		Tenants:        pinQuotaTable,
		Burn:           BurnConfig{ShedBudget: 0.01, QueueViolationBudget: 0.01},
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var snap map[string]any
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap = getDoc(t, srv, "/snapshot")
		keys := map[string]bool{}
		keyPaths(snap, "", keys)
		if keys[".burn[].tenant"] && keys[".tenants[].burning"] && len(snap["windows"].([]any)) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no firing burn alert with an offender in time: %v", sortedKeys(keys))
		}
		time.Sleep(5 * time.Millisecond)
	}
	docs := map[string]map[string]any{
		"snapshot": snap,
		"tenants":  getDoc(t, srv, "/tenants"),
		"healthz":  getDoc(t, srv, "/healthz"),
	}
	var got bytes.Buffer
	for _, name := range []string{"healthz", "snapshot", "tenants"} {
		keys := map[string]bool{}
		keyPaths(docs[name], "", keys)
		fmt.Fprintf(&got, "# /%s\n%s\n", name, strings.Join(sortedKeys(keys), "\n"))
	}
	pinGolden(t, "document_keys.golden", got.Bytes())
}

// TestPromExpositionPinned pins WriteProm over a fixed registry with
// tenant and overflow rows, byte for byte: forty rounds of traffic, and
// 5 000 observations into t9's queue-wait row, so its percentiles come
// from a reservoir that has wrapped.
func TestPromExpositionPinned(t *testing.T) {
	traffic := newPinTraffic()
	for i := 0; i < 40; i++ {
		traffic.bump()
	}
	for i := 0; i < 5000; i++ {
		traffic.reg.HistogramVec("nxzip.tenant.queue_wait_us").With("t9").Observe(float64(i * 7 % 1000))
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, traffic.reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	pinGolden(t, "prom_exposition.golden", buf.Bytes())
}

// TestRenderTextPinned pins one nxtop frame with every panel drawn:
// admission, burn, tenants, devices, the flight section with its
// slowest requests (one with a tenant, one without), windows and events.
func TestRenderTextPinned(t *testing.T) {
	at := time.Unix(1_700_000_000, 0).UTC()
	flight := pinFlight()
	flight.Slowest = append(flight.Slowest, telemetry.Digest{Req: 78, Op: "decompress", Device: "software",
		TotalUS: 800, QueueUS: 1, InBytes: 100, Attempts: 1, Outcome: telemetry.OutcomeError})
	burn := []BurnAlert{{SLO: BurnShed, Speed: "fast", Firing: true, ShortBurn: 80, LongBurn: 60,
		Rate: 14.4, Short: 5 * time.Minute, Long: time.Hour, Tenant: "t5"}}
	cur := &StatusDoc{
		Name: "pin-node", Time: at, Healthy: false,
		Health: HealthReport{Rules: []RuleResult{{Name: "shed-ratio", Expr: "shed <= 0.25", OK: false, Detail: "0.83"}}},
		Devices: []DeviceStatus{
			{Label: "chip0", Healthy: true, Draining: true, BusyCycles: 75, TotalCycles: 100, Util: 0.75},
			{Label: "chip1", Healthy: false, Quarantines: 2},
		},
		Totals:    Totals{Requests: 42, InBytes: 1 << 20, OutBytes: 1 << 18, Shed: 50},
		Admission: pinAdmission(),
		Flight:    flight,
		Tenants: []TenantDoc{
			{Tenant: "t5", ID: 5, ReqPerSec: 10, Requests: 10, Shed: 50, ShedRatio: 0.83, QueueP99: 290,
				Weight: 2, Inflight: 1, Share: 0.5, Burning: []BurnSLO{BurnShed, BurnQueue}},
			{Tenant: "tover", Requests: 1},
		},
		Burn: burn,
		Windows: []Window{
			{End: at, ReqPerSec: 10, GBs: 0.5, QueueP99: 120},
			{End: at.Add(time.Second), ReqPerSec: 12, GBs: 0.6, QueueP99: 130, Fallbacks: 1},
		},
		Events: []Event{
			{Seq: 1, Time: at, Type: EventQuarantine, Device: "chip1", Detail: "three strikes"},
			{Seq: 2, Time: at, Type: EventShed, Req: 9, Tenant: 5, Detail: "batch request shed"},
		},
		EventsDropped: 4,
	}
	var buf bytes.Buffer
	RenderText(&buf, nil, cur)
	pinGolden(t, "render_text.golden", buf.Bytes())
}

// TestBusTailOrderAcrossWrap pins Tail's order, oldest first, after
// cap-1, cap, cap+1 and 2*cap+3 publishes, for requests shorter than,
// equal to and longer than what the bus holds.
func TestBusTailOrderAcrossWrap(t *testing.T) {
	const capacity = 256
	for _, puts := range []int{capacity - 1, capacity, capacity + 1, 2*capacity + 3} {
		b := NewBus()
		for i := 1; i <= puts; i++ {
			b.Publish(Event{Type: EventProbe, Detail: fmt.Sprint(i)})
		}
		for _, n := range []int{1, 7, capacity - 1, capacity, capacity + 5} {
			got := b.Tail(n)
			var gotIdx []string
			for _, e := range got {
				gotIdx = append(gotIdx, e.Detail)
			}
			want := lastN(puts, n, capacity)
			if !reflect.DeepEqual(gotIdx, want) {
				t.Fatalf("puts=%d Tail(%d):\n got %v\nwant %v", puts, n, gotIdx, want)
			}
		}
	}
}

// TestSamplerWindowsOrderAcrossWrap pins Windows' order, oldest first,
// after cap-1, cap, cap+1 and 2*cap+3 ticks: tick i sees i requests.
func TestSamplerWindowsOrderAcrossWrap(t *testing.T) {
	const capacity = 5
	for _, ticks := range []int{capacity - 1, capacity, capacity + 1, 2*capacity + 3} {
		var total int64
		i := 0
		s := NewSampler(func() *telemetry.Snapshot {
			i++
			total += int64(i)
			return &telemetry.Snapshot{Counters: []telemetry.CounterSnapshot{{Name: "nx.requests", Value: total}}}
		}, capacity)
		for k := 0; k < ticks; k++ {
			s.Tick()
		}
		var got []string
		for _, w := range s.Windows() {
			got = append(got, fmt.Sprint(w.Requests))
		}
		if want := lastN(ticks, 0, capacity); !reflect.DeepEqual(got, want) {
			t.Fatalf("ticks=%d Windows:\n got %v\nwant %v", ticks, got, want)
		}
		if last := s.Last(); last.Requests != int64(ticks) {
			t.Fatalf("ticks=%d Last().Requests = %d", ticks, last.Requests)
		}
	}
	if w := NewSampler(func() *telemetry.Snapshot { return &telemetry.Snapshot{} }, 3).Windows(); w == nil || len(w) != 0 {
		t.Fatalf("Windows before any tick = %#v, want an empty non-nil slice", w)
	}
}

// lastN is the reference: the decimal indices of the last n of puts
// values (1-based) a ring of capacity keeps, oldest first; n <= 0 means
// all it keeps.
func lastN(puts, n, capacity int) []string {
	held := min(puts, capacity)
	if n <= 0 || n > held {
		n = held
	}
	var out []string
	for i := puts - n + 1; i <= puts; i++ {
		out = append(out, fmt.Sprint(i))
	}
	return out
}
