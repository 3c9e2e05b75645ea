package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/telemetry"
)

// server.go is the exposition surface: a plain net/http server over the
// closures the root package supplies. Endpoints:
//
//	GET /metrics   Prometheus text exposition of the merged snapshot
//	GET /snapshot  StatusDoc JSON (devices, totals, windows, events, SLO)
//	GET /healthz   200/503 by the SLO rule engine, HealthReport body
//	GET /events    live event stream, one JSON object per line
//
// The server owns a Sampler (started with the listener) so windowed
// rates exist even when nothing polls /snapshot.

// Options configures a Server. Snapshot is required; the rest degrade
// gracefully when absent (no Devices closure → empty device table, no
// Bus → /events answers 503, nil Rules → DefaultRules).
type Options struct {
	// Addr is the listen address (":8090", "127.0.0.1:0").
	Addr string
	// Name identifies the node in /snapshot (host name, "nxbench", …).
	Name string
	// Snapshot returns the current merged node snapshot.
	Snapshot func() *telemetry.Snapshot
	// Devices returns the per-device status table.
	Devices func() []DeviceStatus
	// Health returns the health scoreboard's healthy/total device counts.
	Health func() (healthy, total int)
	// Bus is the node's event bus (may be nil).
	Bus *Bus
	// Rules is the SLO policy for /healthz (nil → DefaultRules).
	Rules []Rule
	// SampleInterval is the window sampler period (<=0 → 1s).
	SampleInterval time.Duration
	// RingCap bounds the window ring (<=0 → default).
	RingCap int
	// Flight returns the flight recorder's status for /snapshot (nil →
	// no flight section).
	Flight func() *FlightStatus
	// Admission returns the admission gate's status for /snapshot (nil
	// closure or nil result → no admission section).
	Admission func() *AdmissionStatus
	// Tenants returns the admission gate's per-tenant quota table for
	// /tenants and /snapshot (nil → rows come from the accounting-plane
	// windows alone).
	Tenants func() []admission.TenantStatus
	// Burn parameterises the multi-window burn-rate evaluator (zero →
	// DefaultBurnConfig). Evaluated on every watcher tick; state changes
	// publish EventBurnRate on Bus.
	Burn BurnConfig
	// Postmortems, when non-nil, is mounted at /debug/postmortems — the
	// flight recorder's bundle browser.
	Postmortems http.Handler
	// OnTransition fires whenever the SLO verdict changes, including the
	// first evaluation (a transition from unknown). The server checks on
	// every health evaluation — the periodic watcher tick, /healthz and
	// /snapshot — so a flip is noticed within one SampleInterval even
	// with no pollers. Called from those paths: keep it brief or hand
	// off. The flight recorder's postmortem trigger hangs off the
	// healthy→unhealthy edge.
	OnTransition func(healthy bool, rep HealthReport)
}

// Server serves the observability endpoints for one node.
type Server struct {
	opt     Options
	sampler *Sampler
	srv     *http.Server

	// healthState is the last SLO verdict: 0 unknown, 1 healthy,
	// 2 unhealthy. Transitions fire Options.OnTransition exactly once
	// per edge regardless of which evaluation path noticed it.
	healthState atomic.Int32
	stopWatch   chan struct{}
	stopOnce    sync.Once
	// wg counts what Close waits for: the Serve and health-watcher
	// goroutines, and every OnTransition call in progress.
	wg sync.WaitGroup

	// burnMu guards the edge-trigger state and the latest evaluation of
	// the burn-rate alerts.
	burnMu     sync.Mutex
	burnFiring map[string]bool
	burnLast   []BurnAlert

	// mu guards ln, and closed: once Close sets it, no OnTransition
	// call starts.
	mu     sync.Mutex
	ln     net.Listener
	closed bool
}

// NewServer builds a server from opts without binding the listener.
func NewServer(opts Options) *Server {
	if opts.Rules == nil {
		opts.Rules = DefaultRules()
	}
	if opts.Name == "" {
		opts.Name = "nxzip"
	}
	s := &Server{opt: opts, sampler: NewSampler(opts.Snapshot, opts.RingCap),
		stopWatch: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/tenants", s.handleTenants)
	if opts.Postmortems != nil {
		mux.Handle("/debug/postmortems", opts.Postmortems)
		mux.Handle("/debug/postmortems/", opts.Postmortems)
	}
	s.srv = &http.Server{Handler: mux}
	return s
}

// Start binds the listener and begins serving and sampling. It returns
// once the listener is bound; Addr is valid afterwards.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.opt.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.sampler.Tick() // establish the delta baseline
	s.sampler.Start(s.opt.SampleInterval)
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(ln)
	}()
	go func() {
		defer s.wg.Done()
		s.watchHealth()
	}()
	return nil
}

// watchHealth evaluates the SLO rules on the sample interval so health
// transitions (and the postmortem trigger behind them) fire even when
// nothing polls /healthz.
func (s *Server) watchHealth() {
	iv := s.opt.SampleInterval
	if iv <= 0 {
		iv = time.Second
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-s.stopWatch:
			return
		case <-t.C:
			s.noteHealth(Evaluate(s.inputs(s.opt.Snapshot()), s.opt.Rules))
			s.noteBurn(EvaluateBurn(s.sampler.Windows(), s.opt.Burn, time.Now()))
		}
	}
}

// noteBurn records the latest burn evaluation and publishes
// EventBurnRate on each state edge (firing and resolving) — once per
// (SLO, speed) pair, never per tick.
func (s *Server) noteBurn(alerts []BurnAlert) {
	s.burnMu.Lock()
	if s.burnFiring == nil {
		s.burnFiring = make(map[string]bool)
	}
	var edges []BurnAlert
	for _, a := range alerts {
		key := string(a.SLO) + "/" + a.Speed
		// A missing map entry reads as not-firing, so the initial
		// not-firing evaluation produces no resolve edge.
		if s.burnFiring[key] != a.Firing {
			s.burnFiring[key] = a.Firing
			edges = append(edges, a)
		}
	}
	s.burnLast = alerts
	s.burnMu.Unlock()
	for _, a := range edges {
		e := Event{Type: EventBurnRate, Detail: a.Detail()}
		if id, ok := telemetry.ParseTenantLabel(a.Tenant); ok {
			e.Tenant = id
		}
		s.opt.Bus.Publish(e)
	}
}

// BurnAlerts returns the latest burn-rate evaluation (nil before the
// first watcher tick).
func (s *Server) BurnAlerts() []BurnAlert {
	s.burnMu.Lock()
	defer s.burnMu.Unlock()
	out := make([]BurnAlert, len(s.burnLast))
	copy(out, s.burnLast)
	return out
}

// tenantRows assembles the joined tenant table for /tenants and
// /snapshot from the last window, the quota closure, and the latest
// burn alerts.
func (s *Server) tenantRows() ([]TenantDoc, Window, []BurnAlert) {
	var quotas []admission.TenantStatus
	if s.opt.Tenants != nil {
		quotas = s.opt.Tenants()
	}
	last := s.sampler.Last()
	burn := s.BurnAlerts()
	return BuildTenants(last, quotas, burn), last, burn
}

// noteHealth records the verdict and fires OnTransition on each edge.
// Every evaluation path funnels through here, so /healthz pollers and
// the periodic watcher cannot double-fire one transition.
func (s *Server) noteHealth(rep HealthReport) {
	cur := int32(1)
	if !rep.Healthy {
		cur = 2
	}
	if s.healthState.Swap(cur) == cur || s.opt.OnTransition == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	s.opt.OnTransition(rep.Healthy, rep)
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Sampler exposes the server's window sampler (for tests and for
// embedding its windows in reports).
func (s *Server) Sampler() *Sampler { return s.sampler }

// Close stops the sampler, the health watcher, and the listener, and
// returns once their goroutines have exited and no OnTransition call
// is running; none starts afterwards.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopWatch) })
	s.sampler.Stop()
	err := s.srv.Close()
	s.wg.Wait()
	return err
}

// inputs assembles the SLO evaluation inputs from the closures.
func (s *Server) inputs(snap *telemetry.Snapshot) Inputs {
	in := Inputs{Snap: snap, Windows: s.sampler.Windows()}
	if s.opt.Health != nil {
		in.HealthyDevices, in.Devices = s.opt.Health()
	}
	return in
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.opt.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteProm(w, snap)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.opt.Snapshot()
	rep := Evaluate(s.inputs(snap), s.opt.Rules)
	s.noteHealth(rep)
	doc := StatusDoc{
		Name:          s.opt.Name,
		Time:          time.Now(),
		Healthy:       rep.Healthy,
		Health:        rep,
		Totals:        TotalsFromSnapshot(snap),
		Windows:       s.sampler.Windows(),
		Events:        s.opt.Bus.Tail(32),
		EventsDropped: s.opt.Bus.Dropped(),
		Metrics:       snap,
	}
	if s.opt.Devices != nil {
		doc.Devices = s.opt.Devices()
	}
	if s.opt.Flight != nil {
		doc.Flight = s.opt.Flight()
	}
	if s.opt.Admission != nil {
		doc.Admission = s.opt.Admission()
	}
	doc.Tenants, _, doc.Burn = s.tenantRows()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rep := Evaluate(s.inputs(s.opt.Snapshot()), s.opt.Rules)
	s.noteHealth(rep)
	w.Header().Set("Content-Type", "application/json")
	if !rep.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(rep)
}

// handleTenants serves the per-tenant accounting view: windowed rates
// from the tenant plane joined with admission quota standing and the
// burn-rate verdict.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	rows, last, burn := s.tenantRows()
	doc := TenantsDoc{
		Name: s.opt.Name, Time: time.Now(),
		Window: last, Tenants: rows, Burn: burn,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// handleEvents streams the bus as JSON lines until the client
// disconnects. The subscription buffer absorbs bursts; events beyond it
// are dropped (and counted) rather than stalling publishers.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.opt.Bus == nil {
		http.Error(w, "no event bus attached", http.StatusServiceUnavailable)
		return
	}
	sub := s.opt.Bus.Subscribe(tailLen)
	defer sub.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-sub.C():
			if !ok {
				return
			}
			if err := enc.Encode(e); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}
