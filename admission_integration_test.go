package nxzip

// admission_integration_test.go covers the root wiring of the overload
// protection subsystem: the admission gate across the one-shot and
// batch paths, priority classes per view, graceful drain (including a
// pinned stream migrating off a draining device), and the Deadline/
// Cancel gates of the batch path.

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
	"nxzip/internal/nx"
	"nxzip/internal/telemetry"
)

// TestBatchDeadlineCancel: per-request Deadline/Cancel gates are honored
// by the batch path — expired and canceled requests fail with the nx
// sentinel errors without consuming device work, while live requests in
// the same batch complete byte-exactly.
func TestBatchDeadlineCancel(t *testing.T) {
	node, err := OpenNode(P9Node(1))
	if err != nil {
		t.Fatal(err)
	}
	acc := node.View()
	defer acc.Close()

	canceled := make(chan struct{})
	close(canceled)
	reqs := []*BatchRequest{
		{Src: corpus.Generate(corpus.JSONLogs, 2048, 1)},
		{Src: corpus.Generate(corpus.JSONLogs, 2048, 2), Deadline: time.Now().Add(-time.Second)},
		{Src: corpus.Generate(corpus.JSONLogs, 2048, 3), Cancel: canceled},
		{Src: corpus.Generate(corpus.JSONLogs, 2048, 4), Deadline: time.Now().Add(time.Minute)},
	}
	acc.CompressBatch(reqs)

	if !errors.Is(reqs[1].Err, nx.ErrDeadlineExceeded) {
		t.Fatalf("expired request: err = %v, want ErrDeadlineExceeded", reqs[1].Err)
	}
	if !errors.Is(reqs[2].Err, nx.ErrCanceled) {
		t.Fatalf("canceled request: err = %v, want ErrCanceled", reqs[2].Err)
	}
	for _, i := range []int{0, 3} {
		r := reqs[i]
		if r.Err != nil {
			t.Fatalf("live request %d: %v", i, r.Err)
		}
		plain, err := SoftwareGunzip(r.Out)
		if err != nil || !bytes.Equal(plain, r.Src) {
			t.Fatalf("live request %d roundtrip: %v", i, err)
		}
	}
	for _, i := range []int{1, 2} {
		if len(reqs[i].Out) != 0 || reqs[i].Device != -1 {
			t.Fatalf("gated request %d produced output (device %d)", i, reqs[i].Device)
		}
	}
}

// TestBatchDeadlineAtNXLayer: the nx.SubmitBatch envelope itself honors
// per-entry gates — a pre-expired entry in an otherwise live batch
// completes with ErrDeadlineExceeded and zero engine work, and the
// chained-cycle accounting of the surviving entries stays intact.
func TestBatchDeadlineAtNXLayer(t *testing.T) {
	acc := Open(Config{Device: P9().Device, TableMode: TableFixed})
	defer acc.Close()
	ctx := acc.Context()
	src := corpus.Generate(corpus.Text, 2048, 5)
	entries := []nx.BatchEntry{
		{CRB: nx.CRB{Func: nx.FCCompressFHT, Wrap: nx.WrapGzip, Input: src}},
		{CRB: nx.CRB{Func: nx.FCCompressFHT, Wrap: nx.WrapGzip, Input: src,
			Deadline: time.Now().Add(-time.Second)}},
		{CRB: nx.CRB{Func: nx.FCCompressFHT, Wrap: nx.WrapGzip, Input: src}},
	}
	if err := ctx.SubmitBatch(entries); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(entries[1].Err, nx.ErrDeadlineExceeded) {
		t.Fatalf("expired entry: err = %v", entries[1].Err)
	}
	if entries[1].CSB.Cycles.Total != 0 {
		t.Fatalf("expired entry burned %d cycles", entries[1].CSB.Cycles.Total)
	}
	for _, i := range []int{0, 2} {
		en := &entries[i]
		if en.Err != nil || en.CSB.CC != nx.CCSuccess {
			t.Fatalf("live entry %d: err=%v cc=%v", i, en.Err, en.CSB.CC)
		}
		plain, err := SoftwareGunzip(en.CSB.Output)
		if err != nil || !bytes.Equal(plain, src) {
			t.Fatalf("live entry %d roundtrip: %v", i, err)
		}
	}
}

// overloadConfig is an admission policy that reacts instantly (no EWMA
// smoothing, no probe rate limit) so tests can pin the ladder state.
func overloadConfig(maxInflight int, maxWait time.Duration) admission.Config {
	return admission.Config{
		MaxInflight:    maxInflight,
		MaxWait:        maxWait,
		PressureAlpha:  1,
		PressurePeriod: time.Nanosecond,
	}
}

// TestAdmissionRootWiring walks the brownout ladder end to end through
// the public API: with the node's one slot held, a background view is
// shed with ErrOverloaded, a batch view degrades to software, an
// interactive view queues and times out; releasing the slot restores
// normal service. The shed surfaces everywhere it should: typed error
// with a retry-after hint, obs event, admission counters, /snapshot
// admission section.
func TestAdmissionRootWiring(t *testing.T) {
	node, err := OpenNode(P9Node(1))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := node.EnableAdmission(overloadConfig(1, 20*time.Millisecond))
	if ctrl == nil || node.Admission() != ctrl {
		t.Fatal("EnableAdmission did not install the controller")
	}
	if again := node.EnableAdmission(admission.Config{}); again != ctrl {
		t.Fatal("EnableAdmission not idempotent")
	}
	src := corpus.Generate(corpus.JSONLogs, 4096, 1)

	// Healthy baseline: an admitted interactive request works and the
	// gate sees it.
	acc := node.View()
	defer acc.Close()
	if _, _, err := acc.CompressGzip(src); err != nil {
		t.Fatalf("interactive at normal load: %v", err)
	}
	if st := ctrl.StatusNow(); st.Admitted[admission.Interactive] == 0 {
		t.Fatal("interactive admission not counted")
	}

	// Occupy the only slot directly: pressure goes to 1.0 and the ladder
	// engages deterministically.
	slot, dec, err := ctrl.Admit(admission.AdmitRequest{Class: admission.Interactive, Tenant: 999})
	if err != nil || dec != admission.DecisionAdmit {
		t.Fatalf("slot occupation: dec=%v err=%v", dec, err)
	}

	bg := node.View()
	defer bg.Close()
	bg.SetPriority(admission.Background)
	if got := bg.Priority(); got != admission.Background {
		t.Fatalf("Priority() = %v", got)
	}
	_, _, bgErr := bg.CompressGzip(src)
	if !errors.Is(bgErr, admission.ErrOverloaded) {
		t.Fatalf("background under overload: err = %v, want ErrOverloaded", bgErr)
	}
	if admission.RetryAfter(bgErr) <= 0 {
		t.Fatalf("shed error carries no retry-after hint: %v", bgErr)
	}

	// Batch class degrades to the software path rather than being denied.
	bt := node.View()
	defer bt.Close()
	bt.SetPriority(admission.Batch)
	out, m, btErr := bt.CompressGzip(src)
	if btErr != nil {
		t.Fatalf("batch under overload: %v", btErr)
	}
	if !m.Degraded {
		t.Fatal("batch-class request under overload not degraded to software")
	}
	if plain, err := SoftwareGunzip(out); err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("degraded batch output mismatch: %v", err)
	}

	// Interactive queues for the slot and times out after MaxWait.
	_, _, intErr := acc.CompressGzip(src)
	if !errors.Is(intErr, admission.ErrOverloaded) {
		t.Fatalf("interactive queue timeout: err = %v, want ErrOverloaded", intErr)
	}

	// The shed is visible on the bus and in the counters.
	sawShed := false
	for _, e := range node.Bus().Tail(64) {
		if e.Type == telemetry.EventShed {
			sawShed = true
		}
	}
	if !sawShed {
		t.Fatal("no EventShed published for a shed request")
	}
	if snap := node.Metrics(); snap.CounterSum("admission.shed") < 2 {
		t.Fatalf("admission.shed = %d, want >= 2", snap.CounterSum("admission.shed"))
	}

	// CompressBatch under overload: background stays shed per request.
	bgReqs := []*BatchRequest{{Src: src}, {Src: src}}
	bg.CompressBatch(bgReqs)
	for i, r := range bgReqs {
		if !errors.Is(r.Err, admission.ErrOverloaded) {
			t.Fatalf("batch-path background request %d: err = %v", i, r.Err)
		}
	}

	// Release the slot: pressure collapses and service resumes for
	// every class.
	slot.Release()
	if _, _, err := bg.CompressGzip(src); err != nil {
		t.Fatalf("background after recovery: %v", err)
	}
	st := node.AdmissionStatus()
	if st == nil {
		t.Fatal("AdmissionStatus nil with admission enabled")
	}
	if st.Level != "normal" {
		t.Fatalf("level after recovery = %q", st.Level)
	}
	if len(st.Classes) != int(admission.ClassCount) {
		t.Fatalf("status classes = %d", len(st.Classes))
	}
}

// TestBatchLargerThanGate: a batch with more requests than the gate's
// in-flight ceiling must not saturate the gate with its own tickets —
// on an otherwise idle node every request completes (dispatched in
// waves, tickets released between them), none is spuriously shed, and
// the call does not serialize MaxWait timeouts.
func TestBatchLargerThanGate(t *testing.T) {
	node, err := OpenNode(P9Node(1))
	if err != nil {
		t.Fatal(err)
	}
	// MaxWait generous on purpose: the old behavior (queueing behind the
	// batch's own tickets) would stall ~28 × 250ms here; the fixed path
	// never queues against itself, so the test also acts as a timing
	// canary via the deadline below.
	ctrl := node.EnableAdmission(overloadConfig(4, 250*time.Millisecond))
	acc := node.View()
	defer acc.Close()

	const nreq = 32
	reqs := make([]*BatchRequest, nreq)
	for i := range reqs {
		reqs[i] = &BatchRequest{Src: corpus.Generate(corpus.JSONLogs, 2048, int64(i+1))}
	}
	start := time.Now()
	acc.CompressBatch(reqs)
	elapsed := time.Since(start)

	for i, r := range reqs {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		plain, err := SoftwareGunzip(r.Out)
		if err != nil || !bytes.Equal(plain, r.Src) {
			t.Fatalf("request %d roundtrip: %v", i, err)
		}
	}
	st := ctrl.StatusNow()
	if shed := st.Shed[admission.Interactive]; shed != 0 {
		t.Fatalf("idle node shed %d of its own batch requests", shed)
	}
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("gate leaked state after batch: %+v", st)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("batch of %d vs ceiling 4 took %v — queued behind its own tickets?", nreq, elapsed)
	}
}

// TestEnableAdmissionConcurrent: concurrent first calls must agree on a
// single controller (one construction, one shed hook, shared counters).
func TestEnableAdmissionConcurrent(t *testing.T) {
	node, err := OpenNode(P9Node(1))
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	ctrls := make([]*admission.Controller, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctrls[g] = node.EnableAdmission(admission.Config{})
		}(g)
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		if ctrls[g] != ctrls[0] {
			t.Fatalf("caller %d got a different controller", g)
		}
	}
	if node.Admission() != ctrls[0] {
		t.Fatal("installed controller differs from the one returned")
	}
}

// TestAdmissionTenantWeights: SetQuotaWeight registers the view at the
// gate; the registration is visible via quota enforcement under load
// (covered unit-side) — here we only pin that the root plumbing reaches
// the controller and survives views without admission enabled.
func TestAdmissionTenantWeights(t *testing.T) {
	node, err := OpenNode(P9Node(1))
	if err != nil {
		t.Fatal(err)
	}
	acc := node.View()
	defer acc.Close()
	acc.SetQuotaWeight(3) // no-op before EnableAdmission: must not panic
	node.EnableAdmission(admission.Config{})
	acc.SetQuotaWeight(3)
	if _, _, err := acc.CompressGzip(corpus.Generate(corpus.Text, 1024, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestDrainGraceful: draining a device stops new admissions to it while
// the rest of the pool serves, the drain quiesces with zero in-flight,
// the device state is visible (Draining, DRAIN panel, drains counter),
// and Undrain restores it to service.
func TestDrainGraceful(t *testing.T) {
	node, err := OpenNode(P9Node(2))
	if err != nil {
		t.Fatal(err)
	}
	acc := node.View()
	defer acc.Close()
	src := corpus.Generate(corpus.JSONLogs, 8192, 1)

	if err := node.Drain(0); err != nil {
		t.Fatalf("drain of idle device: %v", err)
	}
	if !node.Draining(0) || node.Draining(1) {
		t.Fatal("draining flags wrong after Drain(0)")
	}
	if ds := node.DeviceStatuses(); !ds[0].Draining || ds[1].Draining {
		t.Fatal("DeviceStatuses does not reflect drain")
	}

	pastes0 := node.Device(0).Switchboard().Stats().Pastes
	for i := 0; i < 8; i++ {
		gz, m, err := acc.CompressGzip(src)
		if err != nil {
			t.Fatalf("compress during drain: %v", err)
		}
		if m.Degraded {
			t.Fatal("degraded with a healthy non-draining device available")
		}
		plain, err := SoftwareGunzip(gz)
		if err != nil || !bytes.Equal(plain, src) {
			t.Fatalf("roundtrip during drain: %v", err)
		}
	}
	if got := node.Device(0).Switchboard().Stats().Pastes; got != pastes0 {
		t.Fatalf("draining device received %d new pastes", got-pastes0)
	}
	if snap := node.Metrics(); snap.CounterSum("topology.drains") != 1 {
		t.Fatalf("topology.drains = %d", snap.CounterSum("topology.drains"))
	}

	node.Undrain(0)
	if node.Draining(0) {
		t.Fatal("still draining after Undrain")
	}
	for i := 0; i < 8; i++ {
		if _, _, err := acc.CompressGzip(src); err != nil {
			t.Fatalf("compress after undrain: %v", err)
		}
	}
	if got := node.Device(0).Switchboard().Stats().Pastes; got == pastes0 {
		t.Fatal("undrained device never returned to service")
	}

	// Under live traffic: four round-tripping workers keep both devices
	// busy while device 0 drains. The drain drops no in-flight request
	// (every device's dequeues equal its completes), the drained device
	// takes no new paste, and the drain reaches the event bus.
	bus := node.EnableEvents()
	var workers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				gz, _, err := acc.CompressGzip(src)
				if err != nil {
					t.Errorf("worker %d during live drain: %v", w, err)
					return
				}
				if plain, err := SoftwareGunzip(gz); err != nil || !bytes.Equal(plain, src) {
					t.Errorf("worker %d: roundtrip during live drain: %v", w, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	drainErr := node.DrainTimeout(0, 10*time.Second)
	pastesAtDrain := node.Device(0).Switchboard().Stats().Pastes
	time.Sleep(20 * time.Millisecond) // traffic continues on the survivor
	close(done)
	workers.Wait()
	if drainErr != nil {
		t.Fatalf("drain under traffic: %v", drainErr)
	}
	if got := node.Device(0).Switchboard().Stats().Pastes; got != pastesAtDrain {
		t.Fatalf("drained device took %d new pastes", got-pastesAtDrain)
	}
	settled(t, node)
	drainEvent := false
	for _, ev := range bus.Tail(64) {
		drainEvent = drainEvent || ev.Type == telemetry.EventDrain
	}
	if !drainEvent {
		t.Fatal("no drain event on the bus")
	}
	node.Undrain(0)

	// Out-of-range indices are rejected gracefully.
	if err := node.Drain(99); err == nil {
		t.Fatal("Drain(99) succeeded on a 2-device node")
	}
	node.Undrain(99) // must not panic
}

// TestDrainStreamMigration: a StreamWriter pinned to a device migrates
// its history window to another device when its pin drains mid-stream —
// the stream stays byte-exact, undegraded, and the drained device
// quiesces.
func TestDrainStreamMigration(t *testing.T) {
	node, err := OpenNode(P9Node(2))
	if err != nil {
		t.Fatal(err)
	}
	acc := node.View()
	defer acc.Close()

	var buf bytes.Buffer
	w := acc.NewStreamWriterChunk(&buf, 4<<10)
	src := corpus.Generate(corpus.Text, 64<<10, 3)
	if _, err := w.Write(src[:8<<10]); err != nil {
		t.Fatal(err)
	}
	// Find the pinned device (the one with pastes) and drain it.
	pinned := -1
	for i := 0; i < node.Devices(); i++ {
		if node.Device(i).Switchboard().Stats().Pastes > 0 {
			pinned = i
		}
	}
	if pinned < 0 {
		t.Fatal("no device served the first segments")
	}
	if err := node.Drain(pinned); err != nil {
		t.Fatalf("drain of pinned device: %v", err)
	}
	pastesPinned := node.Device(pinned).Switchboard().Stats().Pastes
	if _, err := w.Write(src[8<<10:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := node.Device(pinned).Switchboard().Stats().Pastes; got != pastesPinned {
		t.Fatalf("draining device received %d segments after drain", got-pastesPinned)
	}
	if w.Stats.Degraded {
		t.Fatal("stream degraded to software with a healthy device available")
	}
	plain, err := SoftwareGunzip(buf.Bytes())
	if err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("migrated stream mismatch: %v", err)
	}
}

// TestDrainChaosKillMidRace: a device is killed (offlined) in the middle
// of its own drain while mixed traffic runs — the operator drain bit and
// the 3-strike quarantine race on the same device, the accepting-device
// gauge must not double-move, every request still completes byte-exactly
// and every device balances Dequeues == Completes. Run under -race by
// the chaos suite.
func TestDrainChaosKillMidRace(t *testing.T) {
	node, acc, injs := openChaosNode(t, P9Node(2), faultinject.Profile{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := corpus.Generate(corpus.JSONLogs, 4096, int64(g+1))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				gz, _, err := acc.CompressGzip(src)
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				plain, err := SoftwareGunzip(gz)
				if err != nil || !bytes.Equal(plain, src) {
					t.Errorf("goroutine %d iter %d: mismatch (%v)", g, i, err)
					return
				}
			}
		}(g)
	}

	time.Sleep(5 * time.Millisecond)
	// Drain device 0 and kill it mid-drain: the quarantine machinery
	// races the drain bit on the same devHealth entry.
	drainDone := make(chan error, 1)
	go func() { drainDone <- node.DrainTimeout(0, 5*time.Second) }()
	time.Sleep(time.Millisecond)
	injs[0].SetOffline(true)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain did not quiesce after kill: %v", err)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()

	if !node.Draining(0) {
		t.Fatal("drain bit lost during the race")
	}
	settled(t, node) // no in-flight work dropped
	// Revive and undrain: the device must be reusable (probe readmission
	// may take a round, so allow redispatches — only byte-exactness and
	// completion accounting are pinned here).
	injs[0].SetOffline(false)
	node.Undrain(0)
	src := corpus.Generate(corpus.Text, 4096, 42)
	gz, _, err := acc.CompressGzip(src)
	if err != nil {
		t.Fatalf("compress after revive: %v", err)
	}
	if plain, err := SoftwareGunzip(gz); err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("post-revive roundtrip: %v", err)
	}
}
