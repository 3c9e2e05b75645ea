// Package vas models the Virtual Accelerator Switchboard, the POWER9
// mechanism that gives unprivileged user code a direct, protected path to
// the on-chip accelerator. Each process opens a *send window* bound to the
// accelerator's *receive window*; the copy/paste instruction pair moves a
// cache-line-sized request block (CRB) into the receive FIFO without a
// system call. Credits bound how many outstanding requests each window
// (and the FIFO as a whole) may hold; a paste with no credit fails
// immediately and user code retries — the hardware backpressure the
// paper's multi-tenant results rest on.
package vas

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nxzip/internal/faultinject"
	"nxzip/internal/nmmu"
	"nxzip/internal/telemetry"
)

// Errors returned by Paste, mirroring the condition codes of the paste
// instruction (CR0 busy) and window setup failures.
var (
	ErrNoCredit     = errors.New("vas: paste rejected: no send-window credit")
	ErrFIFOFull     = errors.New("vas: paste rejected: receive FIFO full")
	ErrWindowClosed = errors.New("vas: window closed")
)

// Priority selects which receive FIFO a send window feeds. The NX unit
// has a high-priority and a normal-priority FIFO per engine; the engine
// always serves the high-priority FIFO first, giving latency-sensitive
// users (interactive decompression) a lane past bulk traffic.
type Priority int

const (
	// PriorityNormal is the default bulk lane.
	PriorityNormal Priority = iota
	// PriorityHigh is served before any normal-priority work.
	PriorityHigh
)

// CRB is the coprocessor request block as seen by the switchboard: an
// opaque payload routed to the engine, tagged with the submitting process
// for translation and accounting. The nx package defines the payload.
type CRB struct {
	PID      nmmu.PID
	Window   int // send-window id, filled by Paste
	Priority Priority
	Payload  interface{}
	SeqNo    int64 // FIFO arrival order, filled on enqueue
}

// Config sizes the switchboard.
type Config struct {
	FIFODepth      int // receive FIFO entries (hardware: order of 128)
	CreditsPerSend int // per-window outstanding-request bound
}

// DefaultConfig mirrors the P9 defaults closely enough for queueing
// behaviour: a deep shared FIFO and a handful of credits per window.
func DefaultConfig() Config {
	return Config{FIFODepth: 128, CreditsPerSend: 16}
}

// Stats counts switchboard activity.
type Stats struct {
	Pastes        int64
	CreditRejects int64
	FIFORejects   int64
	Dequeues      int64
	HighDequeues  int64 // dequeues served from the high-priority FIFO
	Completes     int64
	// ArbitrationRounds counts Dequeue invocations — every time an engine
	// arbitrated between the priority FIFOs, whether or not work was found.
	ArbitrationRounds int64
	MaxOccupancy      int
	// InjectedRejects counts paste bounces forced by the fault injector
	// (CR0 busy despite credits and FIFO space); CreditLeaks counts
	// completions whose send-window credit the injector swallowed.
	InjectedRejects int64
	CreditLeaks     int64
}

// Add returns the field-wise sum of s and o — cross-device aggregation
// for multi-accelerator nodes. Counter fields add; MaxOccupancy takes
// the larger of the two, since the two FIFOs are distinct queues and a
// sum would describe a queue that never existed.
func (s Stats) Add(o Stats) Stats {
	s.Pastes += o.Pastes
	s.CreditRejects += o.CreditRejects
	s.FIFORejects += o.FIFORejects
	s.Dequeues += o.Dequeues
	s.HighDequeues += o.HighDequeues
	s.Completes += o.Completes
	s.ArbitrationRounds += o.ArbitrationRounds
	if o.MaxOccupancy > s.MaxOccupancy {
		s.MaxOccupancy = o.MaxOccupancy
	}
	s.InjectedRejects += o.InjectedRejects
	s.CreditLeaks += o.CreditLeaks
	return s
}

// metrics holds pre-resolved registry instruments; nil when no registry
// is installed, in which case the switchboard only keeps its own Stats.
type metrics struct {
	pastes        *telemetry.Counter
	creditRejects *telemetry.Counter
	fifoRejects   *telemetry.Counter
	dequeueNorm   *telemetry.Counter // vas.dequeues{normal}
	dequeueHigh   *telemetry.Counter // vas.dequeues{high}
	completes     *telemetry.Counter
	arbRounds     *telemetry.Counter
	occupancy     *telemetry.Gauge // current depth; Max is the high-water mark
}

// Switchboard is one accelerator's receive side plus all bound send
// windows. Safe for concurrent use.
type Switchboard struct {
	cfg Config

	mu       sync.Mutex
	fifo     crbRing // normal priority
	fifoHigh crbRing // high priority, always served first
	windows  map[int]*sendWindow
	nextWin  int
	nextSeq  int64
	stats    Stats
	met      *metrics
	notify   chan struct{} // signalled on enqueue, capacity 1

	inj atomic.Pointer[faultinject.Injector]

	// creditLeakHook, when set, is called (under the switchboard lock)
	// each time a completion's credit is swallowed. The observability
	// layer installs a bus publish here; the hook must not call back
	// into the switchboard.
	creditLeakHook func()
}

// crbRing is a circular queue of CRBs. The receive FIFO is bounded by
// FIFODepth, so once warm the ring never reallocates — unlike a slice
// advanced with s = s[1:], whose backing array creeps forward and forces
// a fresh allocation on every wrap-around of the append window.
type crbRing struct {
	buf  []*CRB
	head int
	n    int
}

func (r *crbRing) len() int { return r.n }

func (r *crbRing) push(crb *CRB) {
	if r.n == len(r.buf) {
		grown := make([]*CRB, 2*len(r.buf)+8)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = crb
	r.n++
}

func (r *crbRing) pop() *CRB {
	crb := r.buf[r.head]
	r.buf[r.head] = nil // drop the reference so completed CRBs are collectable
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return crb
}

type sendWindow struct {
	id       int
	pid      nmmu.PID
	credits  int
	open     bool
	priority Priority
}

// New builds a switchboard.
func New(cfg Config) *Switchboard {
	if cfg.FIFODepth <= 0 {
		cfg.FIFODepth = DefaultConfig().FIFODepth
	}
	if cfg.CreditsPerSend <= 0 {
		cfg.CreditsPerSend = DefaultConfig().CreditsPerSend
	}
	return &Switchboard{
		cfg:     cfg,
		windows: make(map[int]*sendWindow),
		notify:  make(chan struct{}, 1),
	}
}

// SetMetrics attaches a telemetry registry. Instruments are resolved
// once here ("vas.*" namespace); afterwards every update is an atomic op
// on the held pointer.
func (s *Switchboard) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m := &metrics{
		pastes:        reg.Counter("vas.pastes"),
		creditRejects: reg.Counter("vas.credit_rejects"),
		fifoRejects:   reg.Counter("vas.fifo_rejects"),
		dequeueNorm:   reg.CounterVec("vas.dequeues").With("normal"),
		dequeueHigh:   reg.CounterVec("vas.dequeues").With("high"),
		completes:     reg.Counter("vas.completes"),
		arbRounds:     reg.Counter("vas.arbitration_rounds"),
		occupancy:     reg.Gauge("vas.fifo_occupancy"),
	}
	s.mu.Lock()
	s.met = m
	s.mu.Unlock()
}

// SetCreditLeakHook installs (or, with nil, removes) a callback fired
// whenever a completion leaks its send-window credit. The callback runs
// under the switchboard lock and must not re-enter the switchboard.
func (s *Switchboard) SetCreditLeakHook(fn func()) {
	s.mu.Lock()
	s.creditLeakHook = fn
	s.mu.Unlock()
}

// SetInjector installs (or, with nil, removes) the fault injector
// consulted on every paste (forced rejections) and completion (credit
// leaks).
func (s *Switchboard) SetInjector(inj *faultinject.Injector) { s.inj.Store(inj) }

// OpenSendWindow allocates a normal-priority send window for pid.
func (s *Switchboard) OpenSendWindow(pid nmmu.PID) int {
	return s.OpenSendWindowPri(pid, PriorityNormal)
}

// OpenSendWindowPri allocates a send window bound to the given receive
// FIFO priority.
func (s *Switchboard) OpenSendWindowPri(pid nmmu.PID, pri Priority) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextWin
	s.nextWin++
	s.windows[id] = &sendWindow{id: id, pid: pid, credits: s.cfg.CreditsPerSend, open: true, priority: pri}
	return id
}

// CloseSendWindow closes a window; in-flight requests drain normally.
func (s *Switchboard) CloseSendWindow(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w, ok := s.windows[id]; ok {
		w.open = false
	}
}

// Paste submits a CRB through a send window. It either enqueues the
// request or fails immediately with ErrNoCredit / ErrFIFOFull — paste
// never blocks, exactly like the instruction.
func (s *Switchboard) Paste(window int, crb *CRB) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.windows[window]
	if !ok || !w.open {
		return ErrWindowClosed
	}
	s.stats.Pastes++
	if s.met != nil {
		s.met.pastes.Inc()
	}
	if s.inj.Load().Decide(faultinject.PasteReject) {
		// Injected CR0-busy: the paste bounces regardless of credits or
		// FIFO depth — a paste-rejection storm.
		s.stats.InjectedRejects++
		return ErrNoCredit
	}
	if w.credits <= 0 {
		s.stats.CreditRejects++
		if s.met != nil {
			s.met.creditRejects.Inc()
		}
		return ErrNoCredit
	}
	target := &s.fifo
	if w.priority == PriorityHigh {
		target = &s.fifoHigh
	}
	if target.len() >= s.cfg.FIFODepth {
		s.stats.FIFORejects++
		if s.met != nil {
			s.met.fifoRejects.Inc()
		}
		return ErrFIFOFull
	}
	w.credits--
	crb.Window = window
	crb.PID = w.pid
	crb.Priority = w.priority
	crb.SeqNo = s.nextSeq
	s.nextSeq++
	target.push(crb)
	occ := s.fifo.len() + s.fifoHigh.len()
	if occ > s.stats.MaxOccupancy {
		s.stats.MaxOccupancy = occ
	}
	if s.met != nil {
		s.met.occupancy.Set(int64(occ))
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return nil
}

// Dequeue pops the next CRB in FIFO order, or nil if the FIFO is empty.
// The engine calls this; the send-window credit is returned when the
// engine completes the request via Complete.
func (s *Switchboard) Dequeue() *CRB {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.ArbitrationRounds++
	if s.met != nil {
		s.met.arbRounds.Inc()
	}
	if s.fifoHigh.len() > 0 {
		crb := s.fifoHigh.pop()
		s.stats.Dequeues++
		s.stats.HighDequeues++
		if s.met != nil {
			s.met.dequeueHigh.Inc()
			s.met.occupancy.Set(int64(s.fifo.len() + s.fifoHigh.len()))
		}
		return crb
	}
	if s.fifo.len() == 0 {
		return nil
	}
	crb := s.fifo.pop()
	s.stats.Dequeues++
	if s.met != nil {
		s.met.dequeueNorm.Inc()
		s.met.occupancy.Set(int64(s.fifo.len() + s.fifoHigh.len()))
	}
	return crb
}

// Complete returns the credit for a finished request.
func (s *Switchboard) Complete(crb *CRB) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Completes++
	if s.met != nil {
		s.met.completes.Inc()
	}
	if s.inj.Load().Decide(faultinject.CreditLeak) {
		// Injected credit leak: the completion never returns the send
		// window's credit. Enough of these wedge the window, which the
		// submit-side backoff cap surfaces as ErrDeviceBusy.
		s.stats.CreditLeaks++
		if s.creditLeakHook != nil {
			s.creditLeakHook()
		}
		return
	}
	if w, ok := s.windows[crb.Window]; ok {
		if w.credits < s.cfg.CreditsPerSend {
			w.credits++
		}
	}
}

// Notify returns a channel that receives a token when work may be
// available; engines can block on it instead of polling.
func (s *Switchboard) Notify() <-chan struct{} { return s.notify }

// Occupancy reports the current FIFO depth.
func (s *Switchboard) Occupancy() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fifo.len() + s.fifoHigh.len()
}

// Credits reports the remaining credits of a window.
func (s *Switchboard) Credits(window int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.windows[window]
	if !ok {
		return 0, fmt.Errorf("vas: unknown window %d", window)
	}
	return w.credits, nil
}

// CreditsAvailable sums the remaining credits across all open send
// windows — the headroom the node's status table reports per device.
func (s *Switchboard) CreditsAvailable() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, w := range s.windows {
		if w.open {
			total += w.credits
		}
	}
	return total
}

// CreditsOut sums, over every window ever opened, the credits that are not
// home. At rest that is what the injector leaked (Stats.CreditLeaks): a
// paste takes one, its completion returns it.
func (s *Switchboard) CreditsOut() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := 0
	for _, w := range s.windows {
		out += s.cfg.CreditsPerSend - w.credits
	}
	return out
}

// Stats returns a snapshot of counters.
func (s *Switchboard) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
