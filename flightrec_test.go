package nxzip

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
	"nxzip/internal/telemetry"
	"nxzip/internal/testutil"
)

// TestFlightRecorderAllocFree is the PR's zero-overhead gate: with the
// flight recorder ATTACHED — every request minting a RequestID, its span
// flowing through the pooled tracer into the tail sampler, and a digest
// completing into the ring — the steady-state pooled one-shot path still
// performs ZERO heap allocations per request. Runs in `make bench-alloc`
// next to the detached gate (TestIntoPathAllocFree).
func TestFlightRecorderAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instruments allocations; gate runs in non-race builds")
	}
	acc := Open(Config{Device: P9().Device, TableMode: TableFixed})
	defer acc.Close()
	rec := acc.EnableFlightRecorder("") // memory-only: no disk in the hot path
	src := corpus.Generate(corpus.Text, 8<<10, 3)
	dst := make([]byte, 0, 16<<10)
	var m Metrics
	var err error
	for i := 0; i < 8; i++ { // warm pools, pooled spans, latency windows
		dst, err = acc.CompressGzipInto(dst[:0], src, &m)
		if err != nil {
			t.Fatal(err)
		}
	}
	gz := append([]byte(nil), dst...)
	before := rec.Seq()
	if n := testing.AllocsPerRun(200, func() {
		dst, err = acc.CompressGzipInto(dst[:0], src, &m)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CompressGzipInto with recorder attached: %.1f allocs per steady-state op, want 0", n)
	}
	if rec.Seq() <= before {
		t.Fatal("recorder digested nothing during the alloc gate — the gate measured a detached recorder")
	}

	pdst := make([]byte, 0, 16<<10)
	for i := 0; i < 8; i++ {
		pdst, err = acc.DecompressGzipInto(pdst[:0], gz, &m)
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		pdst, err = acc.DecompressGzipInto(pdst[:0], gz, &m)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecompressGzipInto with recorder attached: %.1f allocs per steady-state op, want 0", n)
	}
	if !bytes.Equal(pdst, src) {
		t.Fatal("roundtrip mismatch after alloc gate")
	}
}

// TestFlightRecorderIdempotent: EnableFlightRecorder returns the same
// recorder on repeat calls, from node and view alike.
func TestFlightRecorderIdempotent(t *testing.T) {
	node, acc, _ := openChaosNode(t, P9Node(2), faultinject.Profile{})
	r1 := node.EnableFlightRecorder("")
	r2 := node.EnableFlightRecorder(t.TempDir()) // loser: first wiring wins
	r3 := acc.EnableFlightRecorder("")
	if r1 != r2 || r1 != r3 || node.FlightRecorder() != r1 || acc.FlightRecorder() != r1 {
		t.Fatal("EnableFlightRecorder not idempotent across node and view")
	}
}

// TestFlightRecorderErrorCarriesRequestID: with the recorder attached,
// terminal errors are stamped with the request's ID so a log line leads
// straight to its digest and retained spans.
func TestFlightRecorderErrorCarriesRequestID(t *testing.T) {
	_, acc, _ := openChaosNode(t, P9Node(1), faultinject.Profile{})
	rec := acc.EnableFlightRecorder("")
	_, _, err := acc.DecompressGzip([]byte("not a gzip stream at all"))
	if err == nil {
		t.Fatal("garbage decompressed")
	}
	if !strings.Contains(err.Error(), "req ") {
		t.Fatalf("error lacks request ID: %v", err)
	}
	var found bool
	for _, d := range rec.Digests(0) {
		if d.Outcome == telemetry.OutcomeError {
			found = true
		}
	}
	if !found {
		t.Fatal("terminal error left no error digest in the ring")
	}
}

// TestChaosFlightRecorderSoakRace: concurrent traffic with the recorder
// attached; afterwards the digest ring must be exactly dense — every
// request digested once, sequence numbers monotonic with no gaps. Runs
// under -race in the chaos suite.
func TestChaosFlightRecorderSoakRace(t *testing.T) {
	node, _, injs := openChaosNode(t, Z15Node(1), faultinject.Uniform(0.01))
	rec := node.EnableFlightRecorder("")
	_ = injs
	const workers, perWorker = 8, 40
	src := corpus.Generate(corpus.Text, 64<<10, 11)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := node.View()
			defer acc.Close()
			for i := 0; i < perWorker; i++ {
				sz := (8 << 10) + (w*perWorker+i)*97%(48<<10)
				gz, _, err := acc.CompressGzip(src[:sz])
				if err != nil {
					t.Errorf("worker %d req %d: %v", w, i, err)
					return
				}
				if i%5 == 0 {
					plain, _, err := acc.DecompressGzip(gz)
					if err != nil || !bytes.Equal(plain, src[:sz]) {
						t.Errorf("worker %d req %d roundtrip: %v", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := uint64(workers * (perWorker + perWorker/5))
	if got := rec.Seq(); got != want {
		t.Fatalf("digested %d requests, want %d — requests lost or double-counted", got, want)
	}
	held := rec.Digests(0)
	for i := 1; i < len(held); i++ {
		if held[i].Seq != held[i-1].Seq+1 {
			t.Fatalf("digest ring not dense at %d: seq %d then %d", i, held[i-1].Seq, held[i].Seq)
		}
	}
}

// TestFlightRecorderEndToEndChaos is the PR's acceptance test: a device
// dies mid-traffic, requests survive through failover, the SLO engine
// flips unhealthy, and the postmortem bundle that triggers contains —
// for one failover-affected request — its digest, BOTH dispatch
// attempts' spans (hop 0 failed, hop 1 won), and the quarantine/failover
// events, all carrying the same RequestID.
func TestFlightRecorderEndToEndChaos(t *testing.T) {
	node, acc, injs := openChaosNode(t, Z15Node(1), faultinject.Profile{}) // 4 zEDC units
	dir := t.TempDir()
	rec := node.EnableFlightRecorder(dir)
	srv, err := node.ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pokeHealth := func() {
		t.Helper()
		resp, herr := http.Get("http://" + srv.Addr() + "/healthz")
		if herr != nil {
			t.Fatal(herr)
		}
		resp.Body.Close()
	}
	pokeHealth() // establish the healthy edge

	src := corpus.Generate(corpus.Text, 64<<10, 5)
	for i := 0; i < 32; i++ {
		if _, _, cerr := acc.CompressGzip(src); cerr != nil {
			t.Fatal(cerr)
		}
	}

	// Kill devices until the majority-quarantine SLO rule must flip:
	// requests keep succeeding through failover and software fallback.
	for i := 0; i < 3; i++ {
		injs[i].SetOffline(true)
	}
	deadline := time.Now().Add(10 * time.Second)
	var survived int
	for node.HealthyDevices() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("majority never quarantined: %d healthy", node.HealthyDevices())
		}
		_, m, cerr := acc.CompressGzip(src)
		if cerr != nil {
			t.Fatalf("request failed during outage: %v", cerr)
		}
		if m.Redispatches > 0 || m.Degraded {
			survived++
		}
	}
	if survived == 0 {
		t.Fatal("no request survived through failover")
	}
	pokeHealth() // force the healthy→unhealthy evaluation edge now

	// The trigger counts before it writes (and may run on the sampler's
	// goroutine), so wait for the bundle itself, not the count.
	var bundles []string
	for bundles = rec.Bundles(); len(bundles) == 0; bundles = rec.Bundles() {
		if time.Now().After(deadline) {
			t.Fatalf("SLO transition left no bundle on disk (%d postmortems counted)", rec.PostmortemCount())
		}
		time.Sleep(10 * time.Millisecond)
		pokeHealth()
	}
	if _, reason := rec.LastTrigger(); !strings.Contains(reason, "slo unhealthy") {
		t.Fatalf("trigger reason %q, want slo unhealthy", reason)
	}

	// The SLO bundle is written at the flip, which can precede the digest
	// of the request whose failed attempt flipped it; the RequestID chain
	// is read from a bundle taken once the outage's traffic has returned,
	// fetched back over the node's /debug/postmortems.
	path, err := rec.TriggerPostmortem("after the outage")
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := http.Get("http://" + srv.Addr() + "/debug/postmortems/" + filepath.Base(path))
	if err != nil {
		t.Fatal(err)
	}
	defer bundle.Body.Close()
	if bundle.StatusCode != http.StatusOK {
		t.Fatalf("bundle fetch over /debug/postmortems: status %d", bundle.StatusCode)
	}
	type hopSpan struct {
		Req uint64 `json:"req"`
		Hop int    `json:"hop"`
		CC  string `json:"cc"`
	}
	redispatched := map[uint64]bool{}
	spans := map[uint64][]hopSpan{}
	eventTypes := map[uint64]map[string]bool{}
	sc := bufio.NewScanner(bundle.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ln struct {
			Kind   string `json:"kind"`
			Digest *struct {
				Req      uint64 `json:"req"`
				Attempts int    `json:"attempts"`
			} `json:"digest"`
			Span  *hopSpan `json:"span"`
			Event *struct {
				Req  uint64 `json:"req"`
				Type string `json:"type"`
			} `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bundle line not JSON: %v", err)
		}
		switch ln.Kind {
		case "digest":
			if ln.Digest.Attempts > 1 {
				redispatched[ln.Digest.Req] = true
			}
		case "span":
			spans[ln.Span.Req] = append(spans[ln.Span.Req], *ln.Span)
		case "event":
			if ln.Event.Req != 0 {
				if eventTypes[ln.Event.Req] == nil {
					eventTypes[ln.Event.Req] = map[string]bool{}
				}
				eventTypes[ln.Event.Req][ln.Event.Type] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(redispatched) == 0 {
		t.Fatal("bundle holds no re-dispatched digest")
	}
	var chained uint64
	for req := range redispatched {
		var hop0, hopWon bool
		for _, s := range spans[req] {
			if s.Hop == 0 {
				hop0 = true
			}
			if s.Hop > 0 && s.CC == "success" {
				hopWon = true
			}
		}
		if hop0 && hopWon && eventTypes[req]["failover"] {
			chained = req
			break
		}
	}
	if chained == 0 {
		t.Fatalf("no request chains failed-attempt span + winning span + failover event under one RequestID (redispatched %d, span reqs %d, event reqs %d)",
			len(redispatched), len(spans), len(eventTypes))
	}

	// The live /snapshot carries the flight section too.
	resp, err := http.Get("http://" + srv.Addr() + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Flight *struct {
			Requests uint64 `json:"requests"`
			Retained int    `json:"retained"`
		} `json:"flight"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Flight == nil || doc.Flight.Requests == 0 || doc.Flight.Retained == 0 {
		t.Fatalf("/snapshot flight section = %+v", doc.Flight)
	}
}
