package nxzip

import (
	"bytes"
	"testing"
	"time"

	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
	"nxzip/internal/testutil"
)

// openChaosNode builds a node of the given shape with per-device
// injectors installed (profile p) and a fast health policy so
// quarantine/probe cycles complete in test time.
func openChaosNode(t *testing.T, shape NodeConfig, p faultinject.Profile) (*Node, *Accelerator, []*faultinject.Injector) {
	t.Helper()
	node, err := OpenNode(shape)
	if err != nil {
		t.Fatal(err)
	}
	injs := node.InstallInjectors(7, p)
	acc := node.View()
	t.Cleanup(acc.Close)
	return node, acc, injs
}

// settled holds every device of the node to the conservation laws of
// testutil.Settled, once the test's traffic has returned.
func settled(t *testing.T, node *Node) {
	t.Helper()
	devs := make([]testutil.Device, node.Devices())
	for i := range devs {
		devs[i] = node.Device(i)
	}
	testutil.Settled(t, devs...)
}

// TestChaosFallbackAllOffline: with every device offlined, every public
// one-shot API still round-trips byte-exactly through the software path,
// flags the result Degraded, and the node snapshot records the
// fallbacks.
func TestChaosFallbackAllOffline(t *testing.T) {
	node, acc, injs := openChaosNode(t, P9Node(2), faultinject.Profile{})
	for _, inj := range injs {
		inj.SetOffline(true)
	}
	src := corpus.Generate(corpus.Text, 64<<10, 1)

	gz, m, err := acc.CompressGzip(src)
	if err != nil {
		t.Fatalf("CompressGzip with dead pool: %v", err)
	}
	if !m.Degraded {
		t.Fatal("software-path compression not flagged Degraded")
	}
	plain, m2, err := acc.DecompressGzip(gz)
	if err != nil {
		t.Fatalf("DecompressGzip with dead pool: %v", err)
	}
	if !m2.Degraded || !bytes.Equal(plain, src) {
		t.Fatalf("degraded round-trip: degraded=%v equal=%v", m2.Degraded, bytes.Equal(plain, src))
	}

	c842, m3, err := acc.Compress842(src[:8<<10])
	if err != nil {
		t.Fatal(err)
	}
	p842, _, err := acc.Decompress842(c842, 16<<10)
	if err != nil || !bytes.Equal(p842, src[:8<<10]) {
		t.Fatalf("degraded 842 round-trip failed: %v", err)
	}
	if !m3.Degraded {
		t.Fatal("842 software path not flagged Degraded")
	}

	dict := []byte("a preset dictionary with shared phrases")
	zd, md, err := acc.CompressZlibDict(src[:4<<10], dict)
	if err != nil || !md.Degraded {
		t.Fatalf("degraded dict compress: err=%v degraded=%v", err, md != nil && md.Degraded)
	}
	back, _, err := acc.DecompressZlibDict(zd, dict)
	if err != nil || !bytes.Equal(back, src[:4<<10]) {
		t.Fatalf("dict round-trip: %v", err)
	}

	snap := node.Metrics()
	if got := snap.Counter("nxzip.fallbacks", ""); got < 4 {
		t.Fatalf("nxzip.fallbacks = %d, want >= 4", got)
	}

	// Revive the pool: the same accelerator serves hardware requests again
	// and the degraded output remains interoperable with the device path.
	for _, inj := range injs {
		inj.SetOffline(false)
	}
	waitHealthy(t, node)
	plain2, m4, err := acc.DecompressGzip(gz)
	if err != nil || !bytes.Equal(plain2, src) {
		t.Fatalf("revived decode of degraded output: %v", err)
	}
	if m4.Degraded {
		t.Fatal("request after revive still degraded")
	}
}

// waitHealthy drives probe traffic until every device is readmitted.
func waitHealthy(t *testing.T, node *Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for node.HealthyDevices() < node.Devices() {
		if time.Now().After(deadline) {
			t.Fatalf("devices never readmitted: %d/%d healthy", node.HealthyDevices(), node.Devices())
		}
		time.Sleep(2 * time.Millisecond)
		// A live request doubles as the probe once the interval elapses.
		acc := node.View()
		_, _, _ = acc.CompressGzip([]byte("probe probe probe"))
		acc.Close()
	}
}

// TestChaosFailoverRedispatch: one dead device in a two-device pool is
// quarantined after its first failures and traffic re-dispatches to the
// healthy device — no degraded results, no errors — and after revival
// the probe cycle readmits it.
func TestChaosFailoverRedispatch(t *testing.T) {
	node, acc, injs := openChaosNode(t, P9Node(2), faultinject.Profile{})
	injs[0].SetOffline(true)
	src := corpus.Generate(corpus.JSONLogs, 32<<10, 2)

	var redispatches int
	for i := 0; i < 8; i++ {
		gz, m, err := acc.CompressGzip(src)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if m.Degraded {
			t.Fatalf("round %d degraded with a healthy device in the pool", i)
		}
		redispatches += m.Redispatches
		plain, _, err := acc.DecompressGzip(gz)
		if err != nil || !bytes.Equal(plain, src) {
			t.Fatalf("round %d round-trip: %v", i, err)
		}
	}
	if redispatches == 0 {
		t.Fatal("dead device was never picked — redispatch path untested")
	}
	if !node.Quarantined(0) {
		t.Fatal("dead device not quarantined after repeated offline failures")
	}
	snap := node.Metrics()
	if got := snap.Counter("topology.quarantines", node.Label(0)); got < 1 {
		t.Fatalf("topology.quarantines[%s] = %d, want >= 1", node.Label(0), got)
	}
	if got := snap.Counter("nxzip.redispatches", ""); got < int64(redispatches) {
		t.Fatalf("nxzip.redispatches = %d, reports summed to %d", got, redispatches)
	}

	injs[0].SetOffline(false)
	waitHealthy(t, node)
	if got := node.Metrics().Counter("topology.readmissions", node.Label(0)); got < 1 {
		t.Fatalf("topology.readmissions[%s] = %d, want >= 1", node.Label(0), got)
	}
}

// TestChaosStreamWriterMigration: offlining the device a StreamWriter is
// pinned to mid-stream migrates the pin (history rides the CRB) and the
// single-member output stays byte-exact, with no software fallback
// needed while a healthy device exists.
func TestChaosStreamWriterMigration(t *testing.T) {
	_, acc, injs := openChaosNode(t, P9Node(2), faultinject.Profile{})
	var gz bytes.Buffer
	w := acc.NewStreamWriterChunk(&gz, 8<<10)
	src := corpus.Generate(corpus.Text, 40<<10, 3)

	if _, err := w.Write(src[:8<<10]); err != nil {
		t.Fatal(err)
	}
	pinned := acc.nctx.IndexOf(w.ctx.Load())
	if pinned < 0 {
		t.Fatal("pinned device not found in pool")
	}
	injs[pinned].SetOffline(true)
	if _, err := w.Write(src[8<<10:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Stats.Redispatches == 0 {
		t.Fatal("stream never migrated off the dead device")
	}
	if w.Stats.Degraded {
		t.Fatal("stream degraded to software with a healthy device available")
	}
	if now := acc.nctx.IndexOf(w.ctx.Load()); now == pinned {
		t.Fatalf("stream still pinned to dead device %d", pinned)
	}
	plain, err := SoftwareGunzip(gz.Bytes())
	if err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("migrated stream corrupt: %v", err)
	}
}

// TestChaosStreamWriterSoftFallback: with the whole pool dead, stream
// segments are encoded by the software matcher — interleaved with
// hardware segments across a revive — and the member still validates.
func TestChaosStreamWriterSoftFallback(t *testing.T) {
	node, acc, injs := openChaosNode(t, P9Node(1), faultinject.Profile{})
	var gz bytes.Buffer
	w := acc.NewStreamWriterChunk(&gz, 8<<10)
	src := corpus.Generate(corpus.JSONLogs, 48<<10, 4)

	if _, err := w.Write(src[:16<<10]); err != nil { // hardware segments
		t.Fatal(err)
	}
	injs[0].SetOffline(true)
	if _, err := w.Write(src[16<<10 : 32<<10]); err != nil { // software segments
		t.Fatal(err)
	}
	injs[0].SetOffline(false)
	waitHealthy(t, node)
	if _, err := w.Write(src[32<<10:]); err != nil { // hardware again
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !w.Stats.Degraded {
		t.Fatal("dead-pool segments not flagged Degraded")
	}
	plain, err := SoftwareGunzip(gz.Bytes())
	if err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("mixed hardware/software stream corrupt: %v (got %d bytes, want %d)", err, len(plain), len(src))
	}
}

// TestChaosStreamReaderSoftFallback: a StreamReader whose pool dies
// mid-stream finishes decoding through the session's software inflater —
// same resume state, byte-exact plaintext.
func TestChaosStreamReaderSoftFallback(t *testing.T) {
	_, acc, injs := openChaosNode(t, P9Node(1), faultinject.Profile{})
	src := corpus.Generate(corpus.Text, 256<<10, 5)
	var gz bytes.Buffer
	w := acc.NewStreamWriterChunk(&gz, 32<<10)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	injs[0].SetOffline(true)
	r := acc.NewStreamReader(bytes.NewReader(gz.Bytes()), len(src)+1024)
	var out bytes.Buffer
	if _, err := out.ReadFrom(r); err != nil {
		t.Fatalf("degraded stream read: %v", err)
	}
	if !bytes.Equal(out.Bytes(), src) {
		t.Fatal("degraded stream decode mismatch")
	}
	if !r.Stats.Degraded {
		t.Fatal("software-inflated stream not flagged Degraded")
	}
}

// TestChaosParallelSoakRace is the -race chaos soak: a ParallelWriter
// and a multi-member parallel Reader run across a multi-device node
// while a chaos goroutine kills and revives devices and a mild injector
// flakes every layer. The round-trip must stay byte-exact and every
// dequeued request must complete exactly once.
func TestChaosParallelSoakRace(t *testing.T) {
	node, acc, injs := openChaosNode(t, Z15Node(1), faultinject.Uniform(0.01)) // one CPC drawer: 4 zEDC units
	const (
		chunk  = 128 << 10
		chunks = 48
	)
	src := corpus.Generate(corpus.Source, chunk*chunks, 6)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // kill/revive cycle: one device down at a time
		defer close(done)
		i := 0
		for {
			inj := injs[i%len(injs)]
			inj.SetOffline(true)
			select {
			case <-stop:
				inj.SetOffline(false)
				return
			case <-time.After(3 * time.Millisecond):
			}
			inj.SetOffline(false)
			i++
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	var gz bytes.Buffer
	w := acc.NewParallelWriterChunk(&gz, chunk, 8)
	for off := 0; off < len(src); off += chunk {
		if _, err := w.Write(src[off : off+chunk]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := acc.NewParallelReader(bytes.NewReader(gz.Bytes()), 4)
	r.MaxOutput = len(src) + 1024
	var out bytes.Buffer
	if _, err := out.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	if !bytes.Equal(out.Bytes(), src) {
		t.Fatalf("chaos round-trip mismatch: got %d bytes, want %d", out.Len(), len(src))
	}

	// No lost or double-completed requests: every request an engine
	// dequeued was completed exactly once (hangs included — the hang path
	// still releases the FIFO entry).
	settled(t, node)
	var injected int64
	for _, inj := range injs {
		injected += inj.TotalInjected()
	}
	t.Logf("chaos soak: %d faults injected, %d redispatches, %d fallbacks, ratio %.2f",
		injected,
		node.Metrics().Counter("nxzip.redispatches", ""),
		node.Metrics().Counter("nxzip.fallbacks", ""),
		w.Stats.Ratio)
}

// TestChaosInjectionDisabledIsNoop pins the zero-overhead contract at
// the API level: installing no injector leaves every counter at zero and
// results undegraded.
func TestChaosInjectionDisabledIsNoop(t *testing.T) {
	acc := Open(P9())
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 32<<10, 8)
	gz, m, err := acc.CompressGzip(src)
	if err != nil || m.Degraded || m.Redispatches != 0 {
		t.Fatalf("clean path: err=%v degraded=%v redispatches=%d", err, m.Degraded, m.Redispatches)
	}
	plain, _, err := acc.DecompressGzip(gz)
	if err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("clean round-trip: %v", err)
	}
	snap := acc.Metrics()
	for _, name := range []string{"nxzip.fallbacks", "nxzip.redispatches", "nx.fault_storms", "nx.engine_hangs"} {
		if got := snap.Counter(name, ""); got != 0 {
			t.Fatalf("%s = %d without an injector", name, got)
		}
	}
}
