package topology

import (
	"sync"
	"testing"

	"nxzip/internal/nmmu"
	"nxzip/internal/nx"
	"nxzip/internal/telemetry"
)

func TestShapes(t *testing.T) {
	p9 := P9Node(2)
	if p9.Size() != 2 || p9.Devices[0].Label != "chip0" || p9.Devices[1].Label != "chip1" {
		t.Fatalf("P9Node(2) = %+v", p9)
	}
	z15 := Z15Node(5)
	if z15.Size() != 20 {
		t.Fatalf("Z15Node(5) has %d devices, want 20 (5 drawers x 4 CP chips)", z15.Size())
	}
	if got := z15.Devices[19].Label; got != "drawer4/cp3" {
		t.Fatalf("last z15 label = %q", got)
	}
	if s := Single(nx.P9Device()); s.Size() != 1 || s.Devices[0].Label != "dev0" {
		t.Fatalf("Single = %+v", s)
	}
	c := Custom("mix", DeviceSpec{Config: nx.P9Device()}, DeviceSpec{Label: "z", Config: nx.Z15Device()})
	if c.Devices[0].Label != "dev0" || c.Devices[1].Label != "z" {
		t.Fatalf("Custom labels = %q, %q", c.Devices[0].Label, c.Devices[1].Label)
	}
	// Degenerate shapes clamp instead of panicking.
	if P9Node(0).Size() != 1 || Z15Node(-1).Size() != 4 {
		t.Fatal("clamping broken")
	}
	if New(Shape{}, nil).Size() != 1 {
		t.Fatal("empty shape did not default to one device")
	}
}

// TestRoundRobinBalanceRace drives many goroutines through the pick and
// checks no request is lost and the distribution is exactly balanced.
// Run under -race this is the dispatcher's concurrency regression test.
func TestRoundRobinBalanceRace(t *testing.T) {
	const (
		devices    = 4
		goroutines = 8
		perG       = 50
	)
	n := New(P9Node(devices), RoundRobin())
	nctx := n.OpenContext(1)
	defer nctx.Close()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d, err := nctx.PickIndexAvail()
				if err != nil {
					t.Error(err)
					return
				}
				nctx.AcquireIndex(d)
				nctx.ReleaseIndex(d, nil)
			}
		}()
	}
	wg.Wait()

	var total int64
	for i := 0; i < devices; i++ {
		total += n.Dispatched(i)
		if got, want := n.Dispatched(i), int64(goroutines*perG/devices); got != want {
			t.Fatalf("device %d dispatched %d, want exactly %d (round-robin)", i, got, want)
		}
		if load := n.Load(i); load != 0 {
			t.Fatalf("device %d load %d after all releases", i, load)
		}
	}
	if total != goroutines*perG {
		t.Fatalf("dispatched %d total, want %d — requests lost or duplicated", total, goroutines*perG)
	}
}

// TestLeastLoadedRace checks the credit-aware policy spreads concurrent
// work across every device and loses nothing.
func TestLeastLoadedRace(t *testing.T) {
	const (
		devices    = 4
		goroutines = 8
		perG       = 50
	)
	n := New(P9Node(devices), LeastLoaded())
	nctx := n.OpenContext(1)
	defer nctx.Close()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d, err := nctx.PickIndexAvail()
				if err != nil {
					t.Error(err)
					return
				}
				nctx.AcquireIndex(d)
				nctx.ReleaseIndex(d, nil)
			}
		}()
	}
	wg.Wait()

	var total int64
	for i := 0; i < devices; i++ {
		c := n.Dispatched(i)
		total += c
		if c == 0 {
			t.Fatalf("device %d never picked by least-loaded", i)
		}
	}
	if total != goroutines*perG {
		t.Fatalf("dispatched %d total, want %d", total, goroutines*perG)
	}
}

// TestAffinitySticky checks that one context always lands on one device
// while many contexts scatter.
func TestAffinitySticky(t *testing.T) {
	n := New(P9Node(4), Affinity())
	nctx := n.OpenContext(1)
	defer nctx.Close()
	first := nctx.PickSticky()
	for i := 0; i < 20; i++ {
		if got := nctx.PickSticky(); got != first {
			t.Fatalf("pick %d moved devices under affinity", i)
		}
	}
	// Distinct contexts hash apart: with 64 contexts over 4 devices the
	// chance of all landing on one device is (1/4)^63 — any spread proves
	// the hash is consuming the context id.
	seen := map[*nx.Context]bool{first: true}
	for pid := 2; pid <= 65; pid++ {
		c := n.OpenContext(nmmu.PID(pid))
		seen[c.PickSticky()] = true
		c.Close()
	}
	if len(seen) < 2 {
		t.Fatal("64 contexts all hashed to one device")
	}
}

// TestDispatchThroughDevicesRace submits real compression requests from
// many goroutines through a multi-device node and reconciles the merged
// telemetry against the per-device registries: nothing lost, aggregate =
// sum of parts.
func TestDispatchThroughDevicesRace(t *testing.T) {
	const (
		goroutines = 4
		perG       = 6
	)
	n := New(Z15Node(1), RoundRobin()) // 4 devices
	nctx := n.OpenContext(1)
	defer nctx.Close()

	src := make([]byte, 16<<10)
	for i := range src {
		src[i] = byte(i % 251)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d, err := nctx.PickIndexAvail()
				if err != nil {
					t.Error(err)
					return
				}
				nctx.AcquireIndex(d)
				_, _, err = nctx.At(d).Compress(src, nx.FCCompressDHT, nx.WrapGzip, true)
				nctx.ReleaseIndex(d, nil)
				if err != nil {
					t.Errorf("compress: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	snap := n.MetricsSnapshot()
	const want = goroutines * perG
	if got := snap.Counter("nx.requests", ""); got != want {
		t.Fatalf("aggregate nx.requests = %d, want %d", got, want)
	}
	var perDevice int64
	for i := 0; i < n.Size(); i++ {
		c := snap.Counter("nx.requests", n.Label(i))
		if c == 0 {
			t.Fatalf("device %s received no requests under round-robin", n.Label(i))
		}
		perDevice += c
	}
	if perDevice != want {
		t.Fatalf("per-device rows sum to %d, want %d", perDevice, want)
	}
	if got := n.VASStats().Completes; got != want {
		t.Fatalf("aggregate VAS completes = %d, want %d", got, want)
	}
	if got := snap.Counter("topology.dispatch", n.Label(0)); got == 0 {
		t.Fatal("node-scope dispatch counter missing from merged snapshot")
	}
}

// TestSingleDeviceSnapshotCompat pins the compatibility contract: a
// one-device node's snapshot keeps the exact pre-topology layout (plain
// labels, no device prefixes).
func TestSingleDeviceSnapshotCompat(t *testing.T) {
	n := New(Single(nx.P9Device()), nil)
	nctx := n.OpenContext(1)
	defer nctx.Close()
	d, err := nctx.PickIndexAvail()
	if err != nil {
		t.Fatal(err)
	}
	nctx.AcquireIndex(d)
	if _, _, err := nctx.At(d).Compress([]byte("hello hello hello"), nx.FCCompressFHT, nx.WrapGzip, true); err != nil {
		t.Fatal(err)
	}
	nctx.ReleaseIndex(d, nil)
	snap := n.MetricsSnapshot()
	if got := snap.Counter("nx.requests", ""); got != 1 {
		t.Fatalf("nx.requests = %d under plain label, want 1", got)
	}
	for _, c := range snap.Counters {
		if c.Name == "nx.requests" && c.Label != "" {
			t.Fatalf("one-device node emitted prefixed row %q", c.Label)
		}
	}
}

func TestSharedTraceClosesOnce(t *testing.T) {
	n := New(P9Node(3), nil)
	sink := telemetry.NewCollectSink()
	n.StartTrace(sink)
	for i := 0; i < n.Size(); i++ {
		if n.Device(i).Tracer() == nil {
			t.Fatalf("device %d has no tracer after StartTrace", i)
		}
	}
	if err := n.StopTrace(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n.Size(); i++ {
		if n.Device(i).Tracer() != nil {
			t.Fatalf("device %d still traced after StopTrace", i)
		}
	}
	// A second stop must not double-close the sink.
	if err := n.StopTrace(); err != nil {
		t.Fatalf("second StopTrace: %v", err)
	}
}

func TestContextCloseIdempotent(t *testing.T) {
	n := New(P9Node(2), nil)
	nctx := n.OpenContext(1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); nctx.Close() }()
	}
	wg.Wait()
	nctx.Close() // and once more, serially
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{
		"": "round-robin", "rr": "round-robin", "round-robin": "round-robin",
		"ll": "least-loaded", "least-loaded": "least-loaded",
		"affinity": "affinity",
	} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("%q -> %s, want %s", name, p.Name(), want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
