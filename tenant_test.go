package nxzip

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/obs"
	"nxzip/internal/telemetry"
)

// tenant_test.go covers the accounting plane's lifecycle guarantees at
// the public API: labeled series appear when a view drives traffic,
// retire after the grace period once the view closes, the shared
// overflow label survives retirement, and the whole plane stays
// race-clean under concurrent view churn, scrapes, and sweeps.

// tenantSeriesCount counts histogram rows belonging to one tenant label
// (the bare "t<id>" queue-wait row plus the "t<id>/class/outcome"
// latency matrix).
func tenantSeriesCount(snap *telemetry.Snapshot, label string) int {
	n := 0
	for _, h := range snap.Histograms {
		if h.Label == label || strings.HasPrefix(h.Label, label+"/") {
			n++
		}
	}
	return n
}

// TestTenantSeriesRetire: a closed view's labeled series survive the
// grace period, then the next snapshot's sweep deletes them.
func TestTenantSeriesRetire(t *testing.T) {
	old := tenantRetireAfter
	tenantRetireAfter = time.Millisecond
	defer func() { tenantRetireAfter = old }()

	cfg := P9Node(1)
	cfg.TableMode = TableFixed
	node, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}

	view := node.View()
	label := TenantLabel(view.TenantID())
	src := corpus.Generate(corpus.Text, 8<<10, 7)
	if _, _, err := view.CompressGzip(src); err != nil {
		t.Fatal(err)
	}
	if n := tenantSeriesCount(node.Metrics(), label); n == 0 {
		t.Fatalf("no %s series after labeled traffic", label)
	}

	view.Close()
	time.Sleep(5 * tenantRetireAfter)
	if n := tenantSeriesCount(node.Metrics(), label); n != 0 {
		t.Fatalf("%d %s series survive the retirement sweep", n, label)
	}
}

// TestTenantOverflowPastCap: views opened past tenantLabelCap account
// under the shared overflow label instead of minting fresh series, and
// that label is never retired — only the per-tenant labels are.
func TestTenantOverflowPastCap(t *testing.T) {
	old := tenantRetireAfter
	tenantRetireAfter = time.Millisecond
	defer func() { tenantRetireAfter = old }()

	cfg := P9Node(1)
	cfg.TableMode = TableFixed
	node, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}

	src := corpus.Generate(corpus.Text, 4<<10, 9)
	views := make([]*Accelerator, 0, tenantLabelCap+2)
	for i := 0; i < tenantLabelCap+2; i++ {
		views = append(views, node.View())
	}
	last := views[len(views)-1]
	if _, _, err := last.CompressGzip(src); err != nil {
		t.Fatal(err)
	}
	snap := node.Metrics()
	if n := tenantSeriesCount(snap, TenantOverflowLabel); n == 0 {
		t.Fatal("view past the label cap minted no overflow series")
	}
	if n := tenantSeriesCount(snap, TenantLabel(last.TenantID())); n != 0 {
		t.Fatalf("view past the label cap minted %d dedicated series", n)
	}

	for _, v := range views {
		v.Close()
	}
	time.Sleep(5 * tenantRetireAfter)
	if n := tenantSeriesCount(node.Metrics(), TenantOverflowLabel); n == 0 {
		t.Fatal("overflow series retired; the shared label must survive sweeps")
	}
}

// TestTenantScrapeChurnRace exercises the plane's three concurrent
// actors — view open/traffic/close churn minting and touching labeled
// series, HTTP scrapes snapshotting them, and the Metrics-path sweep
// retiring them under a 1ms grace period. Meaningful under -race.
func TestTenantScrapeChurnRace(t *testing.T) {
	old := tenantRetireAfter
	tenantRetireAfter = time.Millisecond
	defer func() { tenantRetireAfter = old }()

	cfg := P9Node(1)
	cfg.TableMode = TableFixed
	node, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	node.EnableAdmission(admission.Config{})
	srv, err := node.ServeObsConfig("127.0.0.1:0", ObsConfig{
		SampleInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	src := corpus.Generate(corpus.JSONLogs, 4<<10, 11)
	deadline := time.Now().Add(400 * time.Millisecond)
	var wg sync.WaitGroup

	// View churn: open, prioritise, drive one request, close.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				v := node.View()
				v.SetPriority(admission.Class(w % int(admission.ClassCount)))
				if _, _, cerr := v.CompressGzip(src); cerr != nil && !errors.Is(cerr, admission.ErrOverloaded) {
					t.Errorf("churn worker %d: %v", w, cerr)
					v.Close()
					return
				}
				v.Close()
			}
		}(w)
	}

	// Scrapers: exposition and the tenants document.
	base := "http://" + srv.Addr()
	for _, path := range []string{"/metrics", "/tenants"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				resp, gerr := http.Get(base + path)
				if gerr != nil {
					t.Errorf("GET %s: %v", path, gerr)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	// Sweeper: the snapshot path doubles as the series garbage
	// collector, so hammering Metrics races retirement against churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			node.Metrics()
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
}

// TestTenantExemplarsResolveToDigests: two prioritised tenants' traffic
// shows as /tenants rows carrying their quota weights, and every
// RequestID /metrics attaches to a bucket as an exemplar resolves to a
// digest in the flight recorder's ring.
func TestTenantExemplarsResolveToDigests(t *testing.T) {
	cfg := P9Node(1)
	cfg.TableMode = TableFixed
	node, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	node.EnableAdmission(admission.Config{})
	rec := node.EnableFlightRecorder("")
	srv, err := node.ServeObsConfig("127.0.0.1:0", ObsConfig{SampleInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	weights := map[string]int{}
	var views []*Accelerator
	for i, class := range []admission.Class{admission.Interactive, admission.Batch} {
		v := node.View()
		defer v.Close()
		v.SetPriority(class)
		v.SetQuotaWeight(2 - i)
		weights[TenantLabel(v.TenantID())] = 2 - i
		views = append(views, v)
	}
	src := corpus.Generate(corpus.JSONLogs, 32<<10, 13)
	for i := 0; i < 32; i++ {
		if _, _, err := views[i%2].CompressGzip(src); err != nil {
			t.Fatal(err)
		}
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var doc obs.TenantsDoc
		if err := json.Unmarshal(get("/tenants"), &doc); err != nil {
			t.Fatalf("/tenants: %v", err)
		}
		found := 0
		for _, row := range doc.Tenants {
			if w, ok := weights[row.Tenant]; ok && row.Weight == w {
				found++
			}
		}
		if found == len(weights) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/tenants rows %+v lack %v", doc.Tenants, weights)
		}
	}

	held := map[string]bool{}
	for _, d := range rec.Digests(0) {
		held[strconv.FormatUint(d.Req, 10)] = true
	}
	exemplars := regexp.MustCompile(`# \{req_id="(\d+)"\}`).FindAllStringSubmatch(string(get("/metrics")), -1)
	if len(exemplars) == 0 {
		t.Fatal("/metrics carries no exemplars")
	}
	for _, m := range exemplars {
		if !held[m[1]] {
			t.Fatalf("exemplar req_id %s resolves to no flight-recorder digest", m[1])
		}
	}
}
