// Package nmmu models the Nest MMU, the shared address-translation unit
// that lets the on-chip accelerator operate directly on user virtual
// addresses. This is one of the system-integration pieces the paper calls
// out: the accelerator needs no pinned buffers or kernel bounce buffers —
// it walks the same page tables as the cores, caches translations in an
// ERAT, and reports translation faults to software, which touches the page
// and resubmits the request.
package nmmu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nxzip/internal/faultinject"
	"nxzip/internal/telemetry"
)

// PID identifies an address space (process).
type PID int

// Fault is the error reported when a virtual address has no valid,
// present translation. The device model copies the address into the CSB so
// the OS can touch it and resubmit.
type Fault struct {
	PID PID
	VA  uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("nmmu: translation fault pid %d va %#x", f.PID, f.VA)
}

// ErrNoSpace is returned for an unknown address space.
var ErrNoSpace = errors.New("nmmu: unknown address space")

// pageState tracks one virtual page.
type pageState struct {
	present bool   // backed by a physical page right now
	pa      uint64 // assigned physical page number << pageShift
}

// Config sets geometry and timing.
type Config struct {
	PageSize        int   // bytes; POWER9 uses 64 KiB pages for NX buffers
	ERATEntries     int   // translation cache entries
	ERATHitCycles   int64 // per translated page on hit
	WalkCycles      int64 // page-table walk on ERAT miss
	FaultTripCycles int64 // engine-side cost of detecting + reporting a fault
}

// DefaultConfig mirrors the POWER9 nest: 64 KiB pages, a small ERAT, and a
// multi-hundred-cycle table walk.
func DefaultConfig() Config {
	return Config{
		PageSize:        64 << 10,
		ERATEntries:     32,
		ERATHitCycles:   1,
		WalkCycles:      300,
		FaultTripCycles: 1000,
	}
}

// Stats counts translation activity.
type Stats struct {
	Hits    int64
	Misses  int64
	Faults  int64
	Touches int64 // OS touch-and-resubmit fault handling rounds
	Cycles  int64 // total translation cycles spent
	// InjectedFaults counts faults forced by the fault injector on pages
	// that were actually resident (included in Faults too).
	InjectedFaults int64
}

// RangeStats is the per-call accounting of one TranslateRangeStats:
// cycles charged plus the ERAT hit/miss split, so a request span can
// attribute translation behaviour to the extent that caused it.
type RangeStats struct {
	Cycles int64
	Hits   int64
	Misses int64
}

// metrics holds pre-resolved registry instruments (nil when no registry
// is installed).
type metrics struct {
	hits    *telemetry.Counter
	misses  *telemetry.Counter
	faults  *telemetry.Counter
	touches *telemetry.Counter
}

// MMU is the translation unit. Safe for concurrent use.
type MMU struct {
	cfg Config

	mu     sync.Mutex
	spaces map[PID]*space
	// last is the space translatePages resolved last, so a run of requests
	// from one address space pays no map lookup on the hit path. Spaces
	// are never removed, so it cannot go stale.
	lastPID PID
	last    *space
	erat    erat
	nextPA  uint64
	stats   Stats
	met     *metrics

	inj atomic.Pointer[faultinject.Injector]
}

type space struct {
	pages map[uint64]*pageState // vpn -> state
}

// erat is the translation cache: a ring of ERATEntries slots holding the
// cached translations oldest first, so the set and its FIFO replacement
// order are one structure — an entry that leaves the set leaves the order
// with it. A lookup scans the slots; at a few dozen entries that is
// cheaper than hashing a key, and it is what the silicon's CAM does.
type erat struct {
	slots []eratSlot
	head  int // index of the oldest entry
	n     int // entries held: slots[head], slots[head+1], ... wrapping
}

type eratSlot struct {
	vpn uint64
	pid PID
	pa  uint64
}

// at maps an age (0 = oldest) to its slot index.
func (e *erat) at(age int) int {
	i := e.head + age
	if i >= len(e.slots) {
		i -= len(e.slots)
	}
	return i
}

// find returns the age of the entry for (pid, vpn), or -1.
func (e *erat) find(pid PID, vpn uint64) int {
	for age := 0; age < e.n; age++ {
		if s := &e.slots[e.at(age)]; s.vpn == vpn && s.pid == pid {
			return age
		}
	}
	return -1
}

// insert caches a translation, replacing the oldest entry when full.
func (e *erat) insert(pid PID, vpn, pa uint64) {
	if len(e.slots) == 0 {
		return
	}
	if e.n == len(e.slots) {
		e.slots[e.head] = eratSlot{vpn, pid, pa}
		e.head = e.at(1)
		return
	}
	e.slots[e.at(e.n)] = eratSlot{vpn, pid, pa}
	e.n++
}

// remove drops the entry for (pid, vpn), if cached, closing the gap so the
// younger entries keep their order.
func (e *erat) remove(pid PID, vpn uint64) {
	age := e.find(pid, vpn)
	if age < 0 {
		return
	}
	for ; age < e.n-1; age++ {
		e.slots[e.at(age)] = e.slots[e.at(age+1)]
	}
	e.n--
}

// New builds an MMU.
func New(cfg Config) *MMU {
	if cfg.PageSize <= 0 {
		cfg = DefaultConfig()
	}
	return &MMU{
		cfg:    cfg,
		spaces: make(map[PID]*space),
		erat:   erat{slots: make([]eratSlot, max(cfg.ERATEntries, 0))},
	}
}

// Config returns the active configuration.
func (m *MMU) Config() Config { return m.cfg }

// SetMetrics attaches a telemetry registry ("nmmu.*" namespace).
// Instruments are resolved once; afterwards every update is an atomic op.
func (m *MMU) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	met := &metrics{
		hits:    reg.Counter("nmmu.erat_hits"),
		misses:  reg.Counter("nmmu.erat_misses"),
		faults:  reg.Counter("nmmu.faults"),
		touches: reg.Counter("nmmu.touches"),
	}
	m.mu.Lock()
	m.met = met
	m.mu.Unlock()
}

// SetInjector installs (or, with nil, removes) the fault injector
// consulted on every translation to force faults on resident pages — a
// translation-fault storm at high rates.
func (m *MMU) SetInjector(inj *faultinject.Injector) { m.inj.Store(inj) }

// CreateSpace registers an address space for pid (idempotent).
func (m *MMU) CreateSpace(pid PID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.spaces[pid]; !ok {
		m.spaces[pid] = &space{pages: make(map[uint64]*pageState)}
	}
}

// Map creates valid translations for [va, va+length), initially present
// (resident) or not according to resident. Non-resident pages fault on
// first access until touched, modelling demand paging.
func (m *MMU) Map(pid PID, va uint64, length int, resident bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, ok := m.spaces[pid]
	if !ok {
		return ErrNoSpace
	}
	ps := uint64(m.cfg.PageSize)
	for vpn := va / ps; vpn <= (va+uint64(length)-1)/ps; vpn++ {
		if length == 0 {
			break
		}
		if _, exists := sp.pages[vpn]; !exists {
			m.nextPA++
			sp.pages[vpn] = &pageState{present: resident, pa: m.nextPA * ps}
		} else if resident {
			sp.pages[vpn].present = true
		}
	}
	return nil
}

// Touch makes the page containing va present (what the OS fault handler
// does before resubmitting a faulted request). It is an error to touch an
// unmapped address.
func (m *MMU) Touch(pid PID, va uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, ok := m.spaces[pid]
	if !ok {
		return ErrNoSpace
	}
	vpn := va / uint64(m.cfg.PageSize)
	st, ok := sp.pages[vpn]
	if !ok {
		return fmt.Errorf("nmmu: touch of unmapped va %#x", va)
	}
	st.present = true
	m.stats.Touches++
	if m.met != nil {
		m.met.touches.Inc()
	}
	return nil
}

// Evict marks the page containing va not-present (page stolen by the OS),
// and drops any cached translation.
func (m *MMU) Evict(pid PID, va uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, ok := m.spaces[pid]
	if !ok {
		return
	}
	vpn := va / uint64(m.cfg.PageSize)
	if st, ok := sp.pages[vpn]; ok {
		st.present = false
	}
	m.erat.remove(pid, vpn)
}

// Translate resolves one virtual address, charging ERAT/walk cycles to the
// returned count. On a translation fault the cycles already spent are
// still reported.
func (m *MMU) Translate(pid PID, va uint64) (pa uint64, cycles int64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := uint64(m.cfg.PageSize)
	rs, pa, err := m.translatePages(pid, va/ps, va/ps)
	if err != nil {
		var f *Fault
		if errors.As(err, &f) {
			f.VA = va // the address asked for, not its page's
		}
		return 0, rs.Cycles, err
	}
	return pa + va%ps, rs.Cycles, nil
}

// TranslateRange resolves every page in [va, va+length), returning the
// accumulated translation cycles. On fault it reports the faulting VA and
// the cycles spent up to and including the fault.
func (m *MMU) TranslateRange(pid PID, va uint64, length int) (cycles int64, err error) {
	rs, err := m.TranslateRangeStats(pid, va, length)
	return rs.Cycles, err
}

// TranslateRangeStats is TranslateRange plus the per-call ERAT hit/miss
// split, for callers (the engine) that attribute translation behaviour
// to individual request extents.
func (m *MMU) TranslateRangeStats(pid PID, va uint64, length int) (rs RangeStats, err error) {
	if length <= 0 {
		return RangeStats{}, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := uint64(m.cfg.PageSize)
	rs, _, err = m.translatePages(pid, va/ps, (va+uint64(length)-1)/ps)
	return rs, err
}

// translatePages resolves the pages first..last of one space in order and
// stops at the first that faults, reporting that page's address. One
// injector draw per page, before its lookup, so a seed's fault sequence is
// a function of the pages translated. pa is the last page's frame. The
// space, the injector and the telemetry counters are resolved once for
// the range. Called with m.mu held.
func (m *MMU) translatePages(pid PID, first, last uint64) (rs RangeStats, pa uint64, err error) {
	sp := m.last
	if sp == nil || m.lastPID != pid {
		if sp = m.spaces[pid]; sp == nil {
			return rs, 0, ErrNoSpace
		}
		m.lastPID, m.last = pid, sp
	}
	inj := m.inj.Load()
	walked := int64(0) // ERAT misses; an injected fault is none, it never looked
	faulted := false
	vpn := first
	for ; vpn <= last && !faulted; vpn++ {
		if inj.Decide(faultinject.TransFault) {
			// Injected fault: report the page not translatable even when it
			// is resident. The OS touch-and-resubmit protocol runs exactly as
			// for a real fault; the submit-side round cap bounds the storm.
			m.stats.InjectedFaults++
			m.erat.remove(pid, vpn)
			rs.Misses++
			faulted = true
		} else if age := m.erat.find(pid, vpn); age >= 0 {
			pa = m.erat.slots[m.erat.at(age)].pa
			rs.Hits++
		} else {
			rs.Misses++
			walked++
			if st, ok := sp.pages[vpn]; ok && st.present {
				pa = st.pa
				m.erat.insert(pid, vpn, pa)
			} else {
				faulted = true
			}
		}
	}
	rs.Cycles = rs.Hits*m.cfg.ERATHitCycles + rs.Misses*m.cfg.WalkCycles
	m.stats.Hits += rs.Hits
	m.stats.Misses += walked
	if faulted {
		rs.Cycles += m.cfg.FaultTripCycles
		m.stats.Faults++
	}
	m.stats.Cycles += rs.Cycles
	if met := m.met; met != nil {
		// Each counter is a cache line of its own: touch the ones that move.
		if rs.Hits > 0 {
			met.hits.Add(rs.Hits)
		}
		if walked > 0 {
			met.misses.Add(walked)
		}
		if faulted {
			met.faults.Inc()
		}
	}
	if faulted {
		return rs, 0, &Fault{PID: pid, VA: (vpn - 1) * uint64(m.cfg.PageSize)}
	}
	return rs, pa, nil
}

// Unmap removes the translations for [va, va+length) and drops their
// cached ERAT entries. Software frees the virtual range; subsequent
// device access faults as unmapped.
func (m *MMU) Unmap(pid PID, va uint64, length int) {
	if length <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, ok := m.spaces[pid]
	if !ok {
		return
	}
	ps := uint64(m.cfg.PageSize)
	for vpn := va / ps; vpn <= (va+uint64(length)-1)/ps; vpn++ {
		delete(sp.pages, vpn)
		m.erat.remove(pid, vpn)
	}
}

// MappedPages reports how many virtual pages pid currently has valid
// translations for — the regression handle that catches request paths
// minting fresh mappings forever instead of reusing or releasing them.
func (m *MMU) MappedPages(pid PID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, ok := m.spaces[pid]
	if !ok {
		return 0
	}
	return len(sp.pages)
}

// InvalidateERAT drops all cached translations (context switch / tlbie).
func (m *MMU) InvalidateERAT() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.erat.head, m.erat.n = 0, 0
}

// Stats returns a snapshot of translation counters.
func (m *MMU) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
