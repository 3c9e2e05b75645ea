package admission

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nxzip/internal/telemetry"
)

// admitN admits n requests of class cl and returns their tickets,
// failing the test on any shed.
func admitN(t *testing.T, c *Controller, cl Class, tenant uint64, n int) []Ticket {
	t.Helper()
	tickets := make([]Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, dec, err := c.Admit(AdmitRequest{Class: cl, Tenant: tenant})
		if err != nil || dec != DecisionAdmit {
			t.Fatalf("admit %d/%d: dec=%v err=%v", i, n, dec, err)
		}
		tickets = append(tickets, tk)
	}
	return tickets
}

func TestNilControllerAdmitsEverything(t *testing.T) {
	var c *Controller
	tk, dec, err := c.Admit(AdmitRequest{Class: Background})
	if err != nil || dec != DecisionAdmit {
		t.Fatalf("nil controller: dec=%v err=%v", dec, err)
	}
	tk.Release() // the zero ticket must be safe
	if s := c.StatusNow(); s.Inflight != 0 {
		t.Fatalf("nil controller status: %+v", s)
	}
}

func TestAdmitNormalLoadAllClasses(t *testing.T) {
	c := NewController(Config{MaxInflight: 8}, nil, nil)
	for _, cl := range []Class{Interactive, Batch, Background} {
		tk, dec, err := c.Admit(AdmitRequest{Class: cl})
		if err != nil || dec != DecisionAdmit || tk == (Ticket{}) {
			t.Fatalf("%v: dec=%v err=%v", cl, dec, err)
		}
		tk.Release()
	}
	s := c.StatusNow()
	if s.Inflight != 0 || s.Level != "normal" {
		t.Fatalf("after release: %+v", s)
	}
}

func TestTicketReleaseIdempotent(t *testing.T) {
	c := NewController(Config{MaxInflight: 2}, nil, nil)
	tk := admitN(t, c, Interactive, 1, 1)[0]
	tk.Release()
	tk.Release()
	if got := c.StatusNow().Inflight; got != 0 {
		t.Fatalf("inflight after double release = %d, want 0", got)
	}
}

// TestUnqueuedReleaseReadsNoClock: only a waiter's sojourn needs the time
// at a release, so with nobody queued an admit and its release read the
// clock once, at the admit.
func TestUnqueuedReleaseReadsNoClock(t *testing.T) {
	c := NewController(Config{MaxInflight: 2}, nil, nil)
	reads := 0
	c.now = func() time.Time { reads++; return time.Now() }
	tk := admitN(t, c, Interactive, 1, 1)[0]
	tk.Release()
	if reads != 1 {
		t.Fatalf("an unqueued admit and release read the clock %d times, want 1", reads)
	}
}

// TestBrownoutLadder drives pressure through the rungs with a synthetic
// probe and checks each class's fate at each rung.
func TestBrownoutLadder(t *testing.T) {
	var mu sync.Mutex
	occ := 0.0
	probe := func() Load {
		mu.Lock()
		defer mu.Unlock()
		return Load{Queued: occ, Capacity: 1}
	}
	setOcc := func(v float64) { mu.Lock(); occ = v; mu.Unlock() }
	// alpha=1: the EWMA tracks the probe instantly; period tiny so every
	// Admit resamples.
	c := NewController(Config{MaxInflight: 100, PressureAlpha: 1, PressurePeriod: time.Nanosecond}, probe, nil)

	// Rung 1: background denied, batch and interactive admitted.
	setOcc(0.80)
	if _, _, err := c.Admit(AdmitRequest{Class: Background}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("background at 0.80: err=%v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	_, _, err := c.Admit(AdmitRequest{Class: Background})
	if !errors.As(err, &oe) || oe.Reason != "brownout" || oe.RetryAfter <= 0 {
		t.Fatalf("background shed error = %#v", err)
	}
	for _, cl := range []Class{Interactive, Batch} {
		tk, dec, err := c.Admit(AdmitRequest{Class: cl})
		if err != nil || dec != DecisionAdmit {
			t.Fatalf("%v at 0.80: dec=%v err=%v", cl, dec, err)
		}
		tk.Release()
	}

	// Rung 2: batch degrades to software, interactive still admitted.
	setOcc(0.95)
	if _, dec, err := c.Admit(AdmitRequest{Class: Batch}); err != nil || dec != DecisionDegrade {
		t.Fatalf("batch at 0.95: dec=%v err=%v, want DecisionDegrade", dec, err)
	}
	tk, dec, err := c.Admit(AdmitRequest{Class: Interactive})
	if err != nil || dec != DecisionAdmit {
		t.Fatalf("interactive at 0.95: dec=%v err=%v", dec, err)
	}
	tk.Release()

	// Back to calm: everything admits again (work-conserving).
	setOcc(0.0)
	tk, dec, err = c.Admit(AdmitRequest{Class: Background})
	if err != nil || dec != DecisionAdmit {
		t.Fatalf("background after recovery: dec=%v err=%v", dec, err)
	}
	tk.Release()

	s := c.StatusNow()
	if s.Shed[Background] != 2 || s.Degraded[Batch] != 1 {
		t.Fatalf("counters: %+v", s)
	}
}

// TestSaturationQueueGrant fills every slot, parks an interactive
// waiter, and checks a Release hands it the slot.
func TestSaturationQueueGrant(t *testing.T) {
	c := NewController(Config{MaxInflight: 2, MaxWait: time.Second}, nil, nil)
	tickets := admitN(t, c, Interactive, 1, 2)

	got := make(chan error, 1)
	go func() {
		tk, dec, err := c.Admit(AdmitRequest{Class: Interactive})
		if err == nil && dec == DecisionAdmit {
			tk.Release()
		}
		got <- err
	}()
	// Wait until the waiter is parked, then free a slot.
	deadline := time.Now().Add(time.Second)
	for c.StatusNow().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	tickets[0].Release()
	if err := <-got; err != nil {
		t.Fatalf("queued interactive request: %v", err)
	}
	tickets[1].Release()
	if s := c.StatusNow(); s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("final status: %+v", s)
	}
}

// TestSaturationShedsBatchAndBackground: with every slot held, batch
// degrades and background sheds instead of queueing.
func TestSaturationShedsBatchAndBackground(t *testing.T) {
	c := NewController(Config{MaxInflight: 1}, nil, nil)
	tk := admitN(t, c, Interactive, 1, 1)[0]
	defer tk.Release()

	if _, dec, err := c.Admit(AdmitRequest{Class: Batch}); err != nil || dec != DecisionDegrade {
		t.Fatalf("saturated batch: dec=%v err=%v", dec, err)
	}
	if _, _, err := c.Admit(AdmitRequest{Class: Background}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated background: err=%v", err)
	}
}

func TestQueueTimeoutAndLimit(t *testing.T) {
	c := NewController(Config{MaxInflight: 1, QueueLimit: 1, MaxWait: 20 * time.Millisecond}, nil, nil)
	tk := admitN(t, c, Interactive, 1, 1)[0]
	defer tk.Release()

	// First waiter occupies the queue slot and will time out.
	first := make(chan error, 1)
	go func() {
		_, _, err := c.Admit(AdmitRequest{Class: Interactive})
		first <- err
	}()
	deadline := time.Now().Add(time.Second)
	for c.StatusNow().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Second interactive request overflows the bounded queue.
	var oe *OverloadError
	if _, _, err := c.Admit(AdmitRequest{Class: Interactive}); !errors.As(err, &oe) || oe.Reason != "queue-full" {
		t.Fatalf("queue overflow: %v", err)
	}
	// And the first eventually sheds on queue-timeout.
	err := <-first
	if !errors.As(err, &oe) || oe.Reason != "queue-timeout" {
		t.Fatalf("queue timeout: %v", err)
	}
}

func TestQueueDeadlineAndCancel(t *testing.T) {
	c := NewController(Config{MaxInflight: 1, MaxWait: time.Second}, nil, nil)
	tk := admitN(t, c, Interactive, 1, 1)[0]
	defer tk.Release()

	// Deadline tighter than MaxWait evicts with reason "deadline".
	var oe *OverloadError
	_, _, err := c.Admit(AdmitRequest{Class: Interactive, Deadline: time.Now().Add(10 * time.Millisecond)})
	if !errors.As(err, &oe) || oe.Reason != "deadline" {
		t.Fatalf("deadline eviction: %v", err)
	}

	// Cancel aborts the wait with ErrCanceled (not overload).
	cancel := make(chan struct{})
	got := make(chan error, 1)
	go func() {
		_, _, err := c.Admit(AdmitRequest{Class: Interactive, Cancel: cancel})
		got <- err
	}()
	deadline := time.Now().Add(time.Second)
	for c.StatusNow().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(cancel)
	if err := <-got; !errors.Is(err, ErrCanceled) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("cancel: %v", err)
	}
}

// TestTenantQuota: under brownout a heavy tenant is capped at its
// weight share while a light tenant still admits; at normal load the
// same tenant may use the whole node (work-conserving).
func TestTenantQuota(t *testing.T) {
	var mu sync.Mutex
	occ := 0.0
	probe := func() Load {
		mu.Lock()
		defer mu.Unlock()
		return Load{Queued: occ, Capacity: 1}
	}
	// ShedBackground sits above 3/4 so the in-flight fraction of a full
	// calm node does not itself trip brownout.
	c := NewController(Config{MaxInflight: 4, ShedBackground: 0.76, ShedBatch: 0.95,
		PressureAlpha: 1, PressurePeriod: time.Nanosecond}, probe, nil)
	c.RegisterTenant(1, 1)
	c.RegisterTenant(2, 1)

	// Calm: tenant 1 takes every slot.
	all := admitN(t, c, Interactive, 1, 4)
	for _, tk := range all {
		tk.Release()
	}
	// Tenant 2 issues traffic so it counts as active: quotas divide only
	// among tenants in the activity window, not every tenant ever seen.
	admitN(t, c, Interactive, 2, 1)[0].Release()

	// Brownout: both tenants are active, so tenant 1's quota is
	// ceil(1/2 · 4) = 2.
	mu.Lock()
	occ = 0.80
	mu.Unlock()
	held := admitN(t, c, Interactive, 1, 2)
	var oe *OverloadError
	if _, _, err := c.Admit(AdmitRequest{Class: Interactive, Tenant: 1}); !errors.As(err, &oe) || oe.Reason != "quota" {
		t.Fatalf("over-quota tenant: %v", err)
	}
	// Tenant 2 still has headroom.
	tk2, dec, err := c.Admit(AdmitRequest{Class: Interactive, Tenant: 2})
	if err != nil || dec != DecisionAdmit {
		t.Fatalf("light tenant under brownout: dec=%v err=%v", dec, err)
	}
	tk2.Release()
	for _, tk := range held {
		tk.Release()
	}
}

// TestCoDelEviction holds the queue above target long enough that a
// drain observes CoDel evictions rather than delivering every stale
// waiter.
func TestCoDelEviction(t *testing.T) {
	c := NewController(Config{
		MaxInflight:   1,
		QueueLimit:    64,
		QueueTarget:   time.Millisecond,
		QueueInterval: 5 * time.Millisecond,
		MaxWait:       2 * time.Second,
	}, nil, nil)
	tk := admitN(t, c, Interactive, 1, 1)[0]

	const waiters = 16
	var wg sync.WaitGroup
	results := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, dec, err := c.Admit(AdmitRequest{Class: Interactive})
			if err == nil && dec == DecisionAdmit {
				// Hold briefly so the queue stays above target, then pass the
				// slot on.
				time.Sleep(2 * time.Millisecond)
				tk.Release()
			}
			results <- err
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.StatusNow().Queued < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters queued", c.StatusNow().Queued)
		}
		time.Sleep(time.Millisecond)
	}
	// Age the queue past target+interval, then start the drain.
	time.Sleep(10 * time.Millisecond)
	tk.Release()
	wg.Wait()
	close(results)

	granted, evicted := 0, 0
	var oe *OverloadError
	for err := range results {
		switch {
		case err == nil:
			granted++
		case errors.As(err, &oe) && oe.Reason == "codel-evict":
			evicted++
		default:
			t.Fatalf("unexpected waiter outcome: %v", err)
		}
	}
	if granted == 0 || evicted == 0 {
		t.Fatalf("granted=%d evicted=%d, want both > 0 (CoDel must shed stale waiters but not starve)", granted, evicted)
	}
	if got := c.StatusNow().Evicted; got != int64(evicted) {
		t.Fatalf("evicted counter = %d, want %d", got, evicted)
	}
}

// TestAdmitNoWait: with every slot held, a NoWait attempt returns
// ErrWouldWait immediately — neither queued nor counted as a shed — and
// succeeds again once a slot frees.
func TestAdmitNoWait(t *testing.T) {
	c := NewController(Config{MaxInflight: 1}, nil, nil)
	tk := admitN(t, c, Interactive, 1, 1)[0]

	_, _, err := c.Admit(AdmitRequest{Class: Interactive, NoWait: true})
	if !errors.Is(err, ErrWouldWait) {
		t.Fatalf("NoWait on saturated gate: err = %v, want ErrWouldWait", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("ErrWouldWait must not read as an overload shed")
	}
	s := c.StatusNow()
	if s.Queued != 0 || s.Shed[Interactive] != 0 {
		t.Fatalf("NoWait left state behind: %+v", s)
	}

	tk.Release()
	tk2, dec, err := c.Admit(AdmitRequest{Class: Interactive, NoWait: true})
	if err != nil || dec != DecisionAdmit {
		t.Fatalf("NoWait with a free slot: dec=%v err=%v", dec, err)
	}
	tk2.Release()
}

// TestCancelGrantRaceReturnsCanceled: a waiter whose slot grant races
// its cancellation must still observe ErrCanceled, with the granted
// slot handed back — the caller has abandoned the request and must not
// dispatch it. White-box: the race is staged deterministically by
// granting a hand-queued waiter before invoking its abandon path.
func TestCancelGrantRaceReturnsCanceled(t *testing.T) {
	c := NewController(Config{MaxInflight: 1}, nil, nil)
	tk := admitN(t, c, Interactive, 1, 1)[0]

	w := &waiter{class: Interactive, tenant: 7, enq: c.now(), grant: make(chan error, 1)}
	c.mu.Lock()
	w.elem = c.queues[Interactive].PushBack(w)
	c.queued++
	c.mu.Unlock()

	tk.Release() // grants w: the slot transfers before the cancel lands
	if _, _, err := c.abandon(w, "", ErrCanceled); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled waiter after racing grant: err = %v, want ErrCanceled", err)
	}
	s := c.StatusNow()
	if s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("granted slot not handed back after cancel: %+v", s)
	}
	// The freed slot must be usable again.
	admitN(t, c, Interactive, 1, 1)[0].Release()
}

// TestTenantChurnQuota: a long-running node that has seen many
// short-lived tenants must not collapse a live tenant's brownout quota —
// the denominator covers only active tenants, and idle entries are
// swept so the map stays bounded.
func TestTenantChurnQuota(t *testing.T) {
	var mu sync.Mutex
	occ := 0.0
	probe := func() Load {
		mu.Lock()
		defer mu.Unlock()
		return Load{Queued: occ, Capacity: 1}
	}
	c := NewController(Config{MaxInflight: 4, ShedBackground: 0.76, ShedBatch: 0.95,
		PressureAlpha: 1, PressurePeriod: time.Nanosecond}, probe, nil)
	cur := time.Now()
	c.now = func() time.Time { return cur }

	// 100 one-shot tenants come and go.
	for id := uint64(100); id < 200; id++ {
		tk, dec, err := c.Admit(AdmitRequest{Class: Interactive, Tenant: id})
		if err != nil || dec != DecisionAdmit {
			t.Fatalf("churn tenant %d: dec=%v err=%v", id, dec, err)
		}
		tk.Release()
	}
	// They fall out of the activity window; brownout hits with only
	// tenant 1 live — its quota must be the whole node, not 1/101 of it.
	cur = cur.Add(2 * tenantActiveWindow)
	mu.Lock()
	occ = 0.80
	mu.Unlock()
	held := admitN(t, c, Interactive, 1, 4)
	for _, tk := range held {
		tk.Release()
	}

	// Past the idle age the sweep reaps the churned entries.
	cur = cur.Add(2 * tenantIdleEvict)
	admitN(t, c, Interactive, 1, 1)[0].Release()
	c.mu.Lock()
	n := len(c.tenants)
	c.mu.Unlock()
	if n > 2 {
		t.Fatalf("tenant map holds %d entries after sweep, want <= 2", n)
	}
}

// TestUnregisterTenant: unregistering removes an idle tenant entry
// outright and demotes a busy one for the sweep to reap once drained.
func TestUnregisterTenant(t *testing.T) {
	c := NewController(Config{MaxInflight: 4}, nil, nil)
	c.RegisterTenant(1, 3)
	c.RegisterTenant(2, 1)

	c.UnregisterTenant(2) // idle: gone immediately
	c.mu.Lock()
	_, ok := c.tenants[2]
	c.mu.Unlock()
	if ok {
		t.Fatal("idle tenant still present after UnregisterTenant")
	}

	tk := admitN(t, c, Interactive, 1, 1)[0]
	c.UnregisterTenant(1) // busy: kept until its work drains
	c.mu.Lock()
	t1, ok := c.tenants[1]
	c.mu.Unlock()
	if !ok || t1.registered {
		t.Fatalf("busy tenant entry = %+v, ok=%v; want demoted but present", t1, ok)
	}
	tk.Release()
	c.UnregisterTenant(99) // unknown: no-op
}

func TestShedPublishesEvent(t *testing.T) {
	c := NewController(Config{MaxInflight: 1}, nil, nil)
	bus := telemetry.NewBus()
	c.SetBus(bus)
	tk := admitN(t, c, Interactive, 1, 1)[0]
	defer tk.Release()
	_, _, err := c.Admit(AdmitRequest{Class: Background, Tenant: 7})
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("Admit = %v, want a shed", err)
	}
	events := bus.Tail(10)
	want := fmt.Sprintf("background request shed (brownout), retry after %v", oe.RetryAfter)
	if len(events) != 1 || events[0].Type != telemetry.EventShed || events[0].Tenant != 7 || events[0].Detail != want {
		t.Fatalf("events = %+v, want one shed of tenant 7: %q", events, want)
	}
}

func TestWithDefaultsOrdersThresholds(t *testing.T) {
	// ShedBatch below ShedBackground is clamped up, not left inverted.
	cfg := Config{ShedBackground: 0.9, ShedBatch: 0.5}.withDefaults()
	if cfg.ShedBatch < cfg.ShedBackground {
		t.Fatalf("thresholds inverted: %+v", cfg)
	}
}

func TestRetryAfterHelper(t *testing.T) {
	err := &OverloadError{Class: Background, Reason: "brownout", RetryAfter: 42 * time.Millisecond}
	if got := RetryAfter(fmt.Errorf("wrapped: %w", err)); got != 42*time.Millisecond {
		t.Fatalf("RetryAfter = %v", got)
	}
	if got := RetryAfter(errors.New("other")); got != 0 {
		t.Fatalf("RetryAfter(other) = %v", got)
	}
}

// TestConcurrentChurn hammers the gate from many goroutines mixing all
// classes — meaningful mainly under -race.
func TestConcurrentChurn(t *testing.T) {
	c := NewController(Config{MaxInflight: 8, QueueLimit: 32, MaxWait: 50 * time.Millisecond}, nil, nil)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tk, dec, _ := c.Admit(AdmitRequest{Class: Class(i % int(ClassCount)), Tenant: uint64(g % 4)})
				if dec == DecisionAdmit {
					tk.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.StatusNow(); s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("gate leaked state: %+v", s)
	}
}
