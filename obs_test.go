package nxzip

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
	"nxzip/internal/obs"
	"nxzip/internal/telemetry"
)

// obs_test.go covers the observability layer end to end at the public
// API: event-bus wiring across the stack, the HTTP exposition server
// over a live node, and snapshot/event consistency under concurrent
// kill/revive chaos (run with -race).

// TestObsEventsQuarantineLifecycle: killing a device and driving traffic
// publishes quarantine (and failover) events; reviving it publishes a
// readmission. Events carry the device label.
func TestObsEventsQuarantineLifecycle(t *testing.T) {
	node, acc, injs := openChaosNode(t, P9Node(2), faultinject.Profile{})
	bus := node.EnableEvents()
	sub := bus.Subscribe(256)
	defer sub.Close()

	injs[0].SetOffline(true)
	src := corpus.Generate(corpus.Text, 32<<10, 21)
	for i := 0; i < 12 && !node.Quarantined(0); i++ {
		if _, _, err := acc.CompressGzip(src); err != nil {
			t.Fatal(err)
		}
	}
	if !node.Quarantined(0) {
		t.Fatal("device never quarantined")
	}
	injs[0].SetOffline(false)
	waitHealthy(t, node)

	want := []telemetry.EventType{telemetry.EventQuarantine, telemetry.EventFailover, telemetry.EventReadmit}
	missing := func(seen map[telemetry.EventType]telemetry.Event) bool {
		for _, typ := range want {
			if _, ok := seen[typ]; !ok {
				return true
			}
		}
		return false
	}
	seen := map[telemetry.EventType]telemetry.Event{}
	deadline := time.After(2 * time.Second)
	for missing(seen) {
		select {
		case e := <-sub.C():
			if _, ok := seen[e.Type]; !ok {
				seen[e.Type] = e
			}
		case <-deadline:
			t.Fatalf("event types seen before timeout: %v", keysOf(seen))
		}
	}
	for _, typ := range want {
		e := seen[typ]
		if typ != telemetry.EventFailover && e.Device != node.Label(0) {
			t.Fatalf("%s event device = %q, want %q", typ, e.Device, node.Label(0))
		}
	}
	if bus.Published() == 0 {
		t.Fatal("bus published counter stuck at zero")
	}
	// EnableEvents is idempotent: same bus, wiring intact.
	if again := node.EnableEvents(); again != bus {
		t.Fatal("EnableEvents returned a different bus on second call")
	}
}

func keysOf(m map[telemetry.EventType]telemetry.Event) []telemetry.EventType {
	out := make([]telemetry.EventType, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestObsHealthzFlipsUnderMajorityQuarantine: /healthz answers 200 on a
// healthy node, 503 once a majority of devices are quarantined (the
// healthy-devices SLO rule), and 200 again after revival — the
// acceptance path for wiring liveness probes to the health endpoint.
func TestObsHealthzFlipsUnderMajorityQuarantine(t *testing.T) {
	node, acc, injs := openChaosNode(t, Z15Node(1), faultinject.Profile{}) // 4 zEDC units
	srv, err := node.ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	getHealth := func() (int, obs.HealthReport) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep obs.HealthReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rep
	}

	if code, rep := getHealth(); code != http.StatusOK || !rep.Healthy {
		t.Fatalf("healthy node: /healthz %d, report %+v", code, rep)
	}

	// Kill 3 of 4 devices and drive traffic until the scoreboard
	// quarantines them: 1/4 healthy < the 0.5 SLO floor.
	for i := 0; i < 3; i++ {
		injs[i].SetOffline(true)
	}
	src := corpus.Generate(corpus.JSONLogs, 32<<10, 22)
	deadline := time.Now().Add(5 * time.Second)
	for node.HealthyDevices() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("majority never quarantined: %d/%d healthy", node.HealthyDevices(), node.Devices())
		}
		if _, _, err := acc.CompressGzip(src); err != nil {
			t.Fatal(err)
		}
	}
	code, rep := getHealth()
	if code != http.StatusServiceUnavailable || rep.Healthy {
		t.Fatalf("majority quarantine: /healthz %d, report %+v", code, rep)
	}
	failed := ""
	for _, r := range rep.Rules {
		if !r.OK {
			failed = r.Name
		}
	}
	if failed != "healthy-devices" {
		t.Fatalf("failing rule %q, want healthy-devices: %+v", failed, rep.Rules)
	}

	for i := 0; i < 3; i++ {
		injs[i].SetOffline(false)
	}
	waitHealthy(t, node)
	if code, rep := getHealth(); code != http.StatusOK || !rep.Healthy {
		t.Fatalf("recovered node: /healthz %d, report %+v", code, rep)
	}
}

// TestObsSnapshotEndpointOverLiveNode: /snapshot over a real node
// decodes to a StatusDoc whose device table matches the topology and
// whose totals agree with the merged metrics snapshot.
func TestObsSnapshotEndpointOverLiveNode(t *testing.T) {
	node, acc, _ := openChaosNode(t, P9Node(2), faultinject.Profile{})
	srv, err := node.ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	src := corpus.Generate(corpus.Text, 64<<10, 23)
	for i := 0; i < 4; i++ {
		if _, _, err := acc.CompressGzip(src); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get("http://" + srv.Addr() + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc obs.StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Devices) != node.Devices() {
		t.Fatalf("snapshot has %d devices, node %d", len(doc.Devices), node.Devices())
	}
	for i, d := range doc.Devices {
		if d.Label != node.Label(i) {
			t.Fatalf("device %d label %q, want %q", i, d.Label, node.Label(i))
		}
		if !d.Healthy {
			t.Fatalf("device %d unhealthy on a clean node", i)
		}
	}
	// Quiesced workload: endpoint totals equal a fresh snapshot's.
	if want := node.Metrics().Counter("nx.requests", ""); doc.Totals.Requests != want {
		t.Fatalf("totals.requests = %d, snapshot says %d", doc.Totals.Requests, want)
	}
	if doc.Totals.Requests < 4 || doc.Totals.InBytes < 4*64<<10 {
		t.Fatalf("totals too small for the workload: %+v", doc.Totals)
	}

	// /metrics over the same node parses as Prometheus text, and its key
	// counters equal the snapshot's.
	mresp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	series, err := obs.ParseProm(mresp.Body)
	if err != nil {
		t.Fatalf("/metrics not parseable: %v", err)
	}
	snap := node.Metrics()
	for _, name := range []string{"nx.requests", "nx.in_bytes", "nx.out_bytes", "vas.pastes"} {
		got, want := series[obs.PromSeries(name, "")], float64(snap.Counter(name, ""))
		if got != want || got <= 0 {
			t.Fatalf("%s: /metrics %v, snapshot %v", name, got, want)
		}
	}
}

// TestObsChaosConsistencyRace is the -race consistency soak: a
// compression workload runs while a chaos goroutine kills and revives
// devices, a subscriber drains the event bus, and a scraper pulls merged
// snapshots and bus drop counters concurrently. Outputs stay byte-exact,
// drop counters are monotone, merged snapshots are never torn (aggregate
// row >= any single device row), and after quiescing every dequeued
// request completed exactly once.
func TestObsChaosConsistencyRace(t *testing.T) {
	node, acc, injs := openChaosNode(t, Z15Node(1), faultinject.Uniform(0.005))
	bus := node.EnableEvents()
	sub := bus.Subscribe(64)
	defer sub.Close()

	stop := make(chan struct{})
	chaosDone := make(chan struct{})
	go func() { // kill/revive one device at a time
		defer close(chaosDone)
		for i := 0; ; i++ {
			inj := injs[i%len(injs)]
			inj.SetOffline(true)
			select {
			case <-stop:
				inj.SetOffline(false)
				return
			case <-time.After(2 * time.Millisecond):
			}
			inj.SetOffline(false)
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	scraperDone := make(chan struct{})
	scraperErr := make(chan string, 1)
	go func() { // concurrent snapshot + drop-counter reader
		defer close(scraperDone)
		var lastDropped, lastPublished int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := node.Metrics()
			agg := snap.Counter("nx.requests", "")
			for i := 0; i < node.Devices(); i++ {
				if per := snap.Counter("nx.requests", node.Label(i)); per > agg {
					select {
					case scraperErr <- "torn snapshot: device row exceeds aggregate":
					default:
					}
					return
				}
			}
			if d := bus.Dropped(); d < lastDropped {
				select {
				case scraperErr <- "bus drop counter went backwards":
				default:
				}
				return
			} else {
				lastDropped = d
			}
			if p := bus.Published(); p < lastPublished {
				select {
				case scraperErr <- "bus published counter went backwards":
				default:
				}
				return
			} else {
				lastPublished = p
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	drainDone := make(chan struct{})
	go func() { // event subscriber: keep the channel draining
		defer close(drainDone)
		for {
			select {
			case <-sub.C():
			case <-stop:
				return
			}
		}
	}()

	const chunk = 64 << 10
	src := corpus.Generate(corpus.Source, 32*chunk, 24)
	for round := 0; round < 2; round++ {
		for off := 0; off < len(src); off += chunk {
			gz, _, err := acc.CompressGzip(src[off : off+chunk])
			if err != nil {
				t.Fatal(err)
			}
			plain, _, err := acc.DecompressGzip(gz)
			if err != nil || !bytes.Equal(plain, src[off:off+chunk]) {
				t.Fatalf("chaos round-trip mismatch at offset %d: %v", off, err)
			}
		}
	}

	close(stop)
	<-chaosDone
	<-scraperDone
	<-drainDone
	select {
	case msg := <-scraperErr:
		t.Fatal(msg)
	default:
	}

	// Quiesced: no lost or double-completed requests anywhere.
	settled(t, node)
	// Bus accounting closes: published events were either delivered to the
	// (drained) tail ring and subscriber or counted as drops.
	if bus.Published() < bus.Dropped() {
		t.Fatalf("bus accounting: published %d < dropped %d", bus.Published(), bus.Dropped())
	}
	t.Logf("chaos obs soak: %d events published, %d dropped, %d fallbacks",
		bus.Published(), bus.Dropped(), node.Metrics().Counter("nxzip.fallbacks", ""))
}

// TestObsServeOnViewDoesNotLeak: a served node shuts down cleanly — the
// HTTP server closes, the sampler goroutine stops, and a second ServeObs
// on the same node works (fresh server, same bus).
func TestObsServeRestart(t *testing.T) {
	node, _, _ := openChaosNode(t, P9Node(1), faultinject.Profile{})
	srv, err := node.ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bus := node.Bus()
	if bus == nil {
		t.Fatal("ServeObs did not enable events")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := node.ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatalf("second ServeObs: %v", err)
	}
	defer srv2.Close()
	if node.Bus() != bus {
		t.Fatal("restart replaced the node's event bus")
	}
	resp, err := http.Get("http://" + srv2.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted server /healthz %d", resp.StatusCode)
	}
}
