package nxzip

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/nx"
)

// TestAcceleratorCloseIdempotent is the double-close regression test:
// repeated and concurrent Close calls are no-ops, and use after Close
// fails cleanly instead of corrupting window credits.
func TestAcceleratorCloseIdempotent(t *testing.T) {
	acc := Open(P9())
	if _, _, err := acc.CompressGzip([]byte("close me gently")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); acc.Close() }()
	}
	wg.Wait()
	acc.Close() // and serially once more
	if _, _, err := acc.CompressGzip([]byte("after close")); err == nil {
		t.Fatal("compress after Close succeeded")
	}
}

// TestContextCloseCreditRestoration checks the device-context side: the
// window's credits survive a double close (a second close must not
// re-release anything), observed through the switchboard.
func TestContextCloseCreditRestoration(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	ctx := acc.Device().OpenContext(2)
	win := ctx.Window()
	sb := acc.Device().Switchboard()
	full, err := sb.Credits(win)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctx.Compress([]byte("one request through the window"), nx.FCCompressFHT, nx.WrapGzip, true); err != nil {
		t.Fatal(err)
	}
	ctx.Close()
	ctx.Close()
	got, err := sb.Credits(win)
	if err != nil {
		t.Fatal(err)
	}
	if got != full {
		t.Fatalf("credits after double close = %d, want %d", got, full)
	}
}

func TestOpenNodeUnknownPolicy(t *testing.T) {
	cfg := P9Node(2)
	cfg.Dispatch = "fastest-wins"
	if _, err := OpenNode(cfg); err == nil {
		t.Fatal("unknown dispatch policy accepted")
	}
}

// TestNodeViewCompat checks a node view behaves exactly like a classic
// Accelerator: compression round-trips and the merged snapshot keeps the
// single-device row layout on a one-device node.
func TestNodeViewCompat(t *testing.T) {
	n, err := OpenNode(P9Node(1))
	if err != nil {
		t.Fatal(err)
	}
	acc := n.View()
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 64<<10, 7)
	gz, m, err := acc.CompressGzip(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.InBytes != len(src) {
		t.Fatalf("InBytes = %d, want %d", m.InBytes, len(src))
	}
	plain, _, err := acc.DecompressGzip(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, src) {
		t.Fatal("roundtrip mismatch")
	}
	if got := acc.Metrics().Counter("nx.requests", ""); got != 2 {
		t.Fatalf("nx.requests = %d, want 2 (compress + decompress)", got)
	}
}

// TestParallelWriterShardsAcrossDevices compresses one stream through a
// four-device z15 drawer and checks every device took chunks while the
// output stays a valid in-order multi-member gzip stream.
func TestParallelWriterShardsAcrossDevices(t *testing.T) {
	n, err := OpenNode(Z15Node(1)) // one drawer = 4 zEDC units
	if err != nil {
		t.Fatal(err)
	}
	acc := n.View()
	defer acc.Close()

	src := corpus.Generate(corpus.Text, 2<<20, 11)
	var buf bytes.Buffer
	w := acc.NewParallelWriterChunk(&buf, 128<<10, 8)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	plain, err := GunzipMulti(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, src) {
		t.Fatal("sharded stream does not reassemble in order")
	}
	var total int64
	for i := 0; i < n.Devices(); i++ {
		d := n.Dispatched(i)
		total += d
		if d == 0 {
			t.Fatalf("device %s received no chunks", n.Label(i))
		}
	}
	if want := int64(2 << 20 / (128 << 10)); total != want {
		t.Fatalf("dispatched %d chunks across the node, want %d", total, want)
	}

	// The merged snapshot reconciles: per-device nx.requests rows sum to
	// the aggregate row under the original empty label.
	snap := n.Metrics()
	var perDev int64
	for i := 0; i < n.Devices(); i++ {
		perDev += snap.Counter("nx.requests", n.Label(i))
	}
	if agg := snap.Counter("nx.requests", ""); agg != perDev || agg == 0 {
		t.Fatalf("aggregate nx.requests %d != per-device sum %d", agg, perDev)
	}
}

// TestStreamWriterPinsToOneDevice checks history-carrying streams stay on
// a single device of a multi-device node (history lives in the pick).
func TestStreamWriterPinsToOneDevice(t *testing.T) {
	n, err := OpenNode(Z15Node(1))
	if err != nil {
		t.Fatal(err)
	}
	acc := n.View()
	defer acc.Close()

	src := corpus.Generate(corpus.Text, 512<<10, 13)
	var buf bytes.Buffer
	w := acc.NewStreamWriterChunk(&buf, 64<<10)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	plain, err := SoftwareGunzip(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, src) {
		t.Fatal("stream roundtrip mismatch")
	}
	devicesUsed := 0
	snap := n.Metrics()
	for i := 0; i < n.Devices(); i++ {
		if snap.Counter("nx.requests", n.Label(i)) > 0 {
			devicesUsed++
		}
	}
	if devicesUsed != 1 {
		t.Fatalf("stream segments landed on %d devices, want 1 (sticky pick)", devicesUsed)
	}
}

// TestNodeDispatchPolicies runs the same workload under each policy
// through the public API and checks totals are preserved.
func TestNodeDispatchPolicies(t *testing.T) {
	src := corpus.Generate(corpus.JSONLogs, 64<<10, 17)
	for _, policy := range []string{"round-robin", "least-loaded", "affinity"} {
		cfg := Z15Node(1)
		cfg.Dispatch = policy
		n, err := OpenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		acc := n.View()
		const reqs = 12
		for i := 0; i < reqs; i++ {
			if _, _, err := acc.CompressGzip(src); err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
		}
		var total int64
		for i := 0; i < n.Devices(); i++ {
			total += n.Dispatched(i)
		}
		if total != reqs {
			t.Fatalf("%s: dispatched %d, want %d", policy, total, reqs)
		}
		if policy == "affinity" {
			// One context: every request must be on the same device.
			nonzero := 0
			for i := 0; i < n.Devices(); i++ {
				if n.Dispatched(i) > 0 {
					nonzero++
				}
			}
			if nonzero != 1 {
				t.Fatalf("affinity spread one context over %d devices", nonzero)
			}
		}
		acc.Close()
	}
}

// TestMergedSnapshotLabels spot-checks the prefixed-row naming contract
// documented in DESIGN.md §5c.
func TestMergedSnapshotLabels(t *testing.T) {
	n, err := OpenNode(Z15Node(1))
	if err != nil {
		t.Fatal(err)
	}
	acc := n.View()
	defer acc.Close()
	if _, _, err := acc.CompressGzip([]byte(strings.Repeat("label me ", 1<<10))); err != nil {
		t.Fatal(err)
	}
	snap := n.Metrics()
	foundPrefixed := false
	for _, c := range snap.Counters {
		if c.Name == "nx.requests" && strings.HasPrefix(c.Label, "drawer0/cp") {
			foundPrefixed = true
		}
	}
	if !foundPrefixed {
		t.Fatal("no drawer-prefixed nx.requests row in merged snapshot")
	}
}

// TestStatusDoesNotWaitForARequest: what an operator reads — the status
// table behind /snapshot and nxtop, a device's metrics snapshot, an
// engine's counters — returns while a request is still in the engine, and
// shows it as in flight: dispatched, dequeued, its source translated, not
// yet on the ledger. The engine's lock covers the ledger, not the
// computation. There is no timing threshold: when a read waits for the
// request, the request is on the ledger by the time the read returns.
func TestStatusDoesNotWaitForARequest(t *testing.T) {
	node, err := OpenNode(P9Node(1))
	if err != nil {
		t.Fatal(err)
	}
	acc := node.View()
	defer acc.Close()
	dev := node.Device(0)
	src := corpus.Generate(corpus.Text, 16<<20, 3)
	done := make(chan error, 1)
	go func() {
		_, _, err := acc.CompressGzip(src)
		done <- err
	}()
	// Translating the source is the first thing the engine does with a
	// request, and the last before the kernel runs.
	for dev.MMU().Stats().Misses == 0 {
		select {
		case err := <-done:
			t.Fatalf("the request returned (%v) without translating a page", err)
		default:
			runtime.Gosched()
		}
	}

	if c := dev.Engine(0).Counters(); c.Requests != 0 {
		t.Errorf("Engine.Counters returned after the request: %+v", c)
	}
	if ds := node.DeviceStatuses()[0]; ds.BusyCycles != 0 || ds.Load == 0 {
		t.Errorf("DeviceStatuses returned after the request: load %d, %d busy cycles", ds.Load, ds.BusyCycles)
	}
	snap := dev.MetricsSnapshot()
	if n, deq := snap.Counter("nx.engine.requests", "0"), dev.Switchboard().Stats().Dequeues; n != 0 || deq != 1 {
		t.Errorf("MetricsSnapshot returned after the request: %d on engine 0's ledger, %d dequeued", n, deq)
	}
	select {
	case <-done:
		t.Fatal("the request finished before the reads did: nothing was in flight to wait for")
	default:
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c := dev.Engine(0).Counters(); c.Requests != 1 || c.InBytes != int64(len(src)) {
		t.Fatalf("ledger after the request: %+v", c)
	}
	settled(t, node)
}
