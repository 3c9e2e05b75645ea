package nmmu

import (
	"errors"
	"math/rand"
	"testing"

	"nxzip/internal/faultinject"
)

func newTestMMU() *MMU {
	cfg := DefaultConfig()
	cfg.PageSize = 4096 // small pages make range tests cheap
	cfg.ERATEntries = 4
	m := New(cfg)
	m.CreateSpace(1)
	return m
}

func TestTranslateResident(t *testing.T) {
	m := newTestMMU()
	if err := m.Map(1, 0x10000, 8192, true); err != nil {
		t.Fatal(err)
	}
	pa1, c1, err := m.Translate(1, 0x10010)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != m.Config().WalkCycles {
		t.Fatalf("first access cost %d, want walk %d", c1, m.Config().WalkCycles)
	}
	// Second access: ERAT hit, cheap, same PA.
	pa2, c2, err := m.Translate(1, 0x10020)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != m.Config().ERATHitCycles {
		t.Fatalf("hit cost %d", c2)
	}
	if pa2 != pa1+0x10 {
		t.Fatalf("same-page offsets disagree: %#x vs %#x", pa1, pa2)
	}
}

func TestTranslateFaultNonResident(t *testing.T) {
	m := newTestMMU()
	if err := m.Map(1, 0x20000, 4096, false); err != nil {
		t.Fatal(err)
	}
	_, _, err := m.Translate(1, 0x20000)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want Fault", err)
	}
	if f.VA != 0x20000 || f.PID != 1 {
		t.Fatalf("fault = %+v", f)
	}
	// Touch-and-retry succeeds: the demand-paging protocol.
	if err := m.Touch(1, 0x20000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Translate(1, 0x20000); err != nil {
		t.Fatalf("after touch: %v", err)
	}
}

func TestTranslateUnmapped(t *testing.T) {
	m := newTestMMU()
	if _, _, err := m.Translate(1, 0xdead0000); err == nil {
		t.Fatal("unmapped address translated")
	}
	if _, _, err := m.Translate(99, 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("unknown pid: %v", err)
	}
	if err := m.Touch(1, 0xdead0000); err == nil {
		t.Fatal("touch of unmapped accepted")
	}
}

func TestTranslateRange(t *testing.T) {
	m := newTestMMU()
	if err := m.Map(1, 0x40000, 5*4096, true); err != nil {
		t.Fatal(err)
	}
	cycles, err := m.TranslateRange(1, 0x40000, 5*4096)
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * m.Config().WalkCycles; cycles != want {
		t.Fatalf("cycles = %d, want %d", cycles, want)
	}
	// Second pass: but ERAT holds only 4 entries with FIFO replacement,
	// so a 5-page sequential walk keeps missing (classic thrash).
	cycles2, err := m.TranslateRange(1, 0x40000, 5*4096)
	if err != nil {
		t.Fatal(err)
	}
	if cycles2 != cycles {
		t.Fatalf("thrash pass cost %d, want %d", cycles2, cycles)
	}
}

func TestTranslateRangeMidFault(t *testing.T) {
	m := newTestMMU()
	if err := m.Map(1, 0x50000, 4*4096, true); err != nil {
		t.Fatal(err)
	}
	m.Evict(1, 0x52000) // third page gone
	cycles, err := m.TranslateRange(1, 0x50000, 4*4096)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want fault, got %v", err)
	}
	if f.VA != 0x52000 {
		t.Fatalf("fault at %#x", f.VA)
	}
	if cycles <= 0 {
		t.Fatal("no cycles charged before fault")
	}
	st := m.Stats()
	if st.Faults != 1 {
		t.Fatalf("faults = %d", st.Faults)
	}
}

func TestERATInvalidate(t *testing.T) {
	m := newTestMMU()
	m.Map(1, 0, 4096, true)
	m.Translate(1, 0)
	m.Translate(1, 16) // hit
	m.InvalidateERAT()
	_, c, err := m.Translate(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c != m.Config().WalkCycles {
		t.Fatalf("post-invalidate cost %d", c)
	}
}

func TestEvictDropsERAT(t *testing.T) {
	m := newTestMMU()
	m.Map(1, 0, 4096, true)
	m.Translate(1, 0)
	m.Evict(1, 0)
	if _, _, err := m.Translate(1, 0); err == nil {
		t.Fatal("evicted page still translates (stale ERAT)")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := newTestMMU()
	m.Map(1, 0, 2*4096, true)
	m.Translate(1, 0)
	m.Translate(1, 8)
	m.Translate(1, 4096)
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Cycles != 2*m.Config().WalkCycles+m.Config().ERATHitCycles {
		t.Fatalf("cycles = %d", st.Cycles)
	}
}

func TestMapZeroLength(t *testing.T) {
	m := newTestMMU()
	if err := m.Map(1, 0x1000, 0, true); err != nil {
		t.Fatal(err)
	}
	if c, err := m.TranslateRange(1, 0x1000, 0); err != nil || c != 0 {
		t.Fatalf("zero-length range: %d, %v", c, err)
	}
}

func TestDistinctSpacesDistinctPAs(t *testing.T) {
	m := newTestMMU()
	m.CreateSpace(2)
	m.Map(1, 0, 4096, true)
	m.Map(2, 0, 4096, true)
	pa1, _, err := m.Translate(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pa2, _, err := m.Translate(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pa1 == pa2 {
		t.Fatal("two spaces share a physical page")
	}
}

// refERAT is the translation cache as a plain FIFO set: what the ring in
// MMU.erat must behave as under any call sequence.
type refERAT struct {
	entries int
	keys    [][2]uint64 // (pid, vpn), oldest first
}

func (r *refERAT) index(k [2]uint64) int {
	for i, have := range r.keys {
		if have == k {
			return i
		}
	}
	return -1
}

func (r *refERAT) insert(k [2]uint64) {
	if len(r.keys) == r.entries {
		r.keys = r.keys[1:]
	}
	r.keys = append(r.keys, k)
}

func (r *refERAT) remove(k [2]uint64) {
	if i := r.index(k); i >= 0 {
		r.keys = append(r.keys[:i:i], r.keys[i+1:]...)
	}
}

// TestERATNeverExceedsCapacity drives random Map/Touch/Evict/Unmap/
// Translate/TranslateRange/InvalidateERAT calls, some under an injector
// that faults every page, against refERAT and a map of present pages: each
// translation's hits, misses, cycles and fault address are the
// reference's, and the ring holds exactly the reference's entries — never
// more than ERATEntries. The first steps are the sequence that used to
// leave a ghost in the replacement queue: fill the cache, evict one page,
// translate two new ones.
func TestERATNeverExceedsCapacity(t *testing.T) {
	const (
		ps     = 4096
		npages = 24 // per space; three times the cache at its largest
	)
	for _, entries := range []int{1, 4, 8} {
		for seed := int64(1); seed <= 20; seed++ {
			cfg := DefaultConfig()
			cfg.PageSize, cfg.ERATEntries = ps, entries
			m := New(cfg)
			ref := refERAT{entries: entries}
			present := map[[2]uint64]bool{} // mapped pages -> resident
			for pid := PID(1); pid <= 2; pid++ {
				m.CreateSpace(pid)
			}
			always := faultinject.New(seed, faultinject.Profile{TransFault: 1})
			rng := rand.New(rand.NewSource(seed))

			// translate predicts one range call and checks it.
			translate := func(pid PID, vpn uint64, n int, injected bool) {
				var want RangeStats
				var wantFault *uint64
				for p := vpn; p < vpn+uint64(n) && wantFault == nil; p++ {
					k := [2]uint64{uint64(pid), p}
					switch {
					case injected:
						ref.remove(k)
						want.Misses++
						wantFault = &p
					case ref.index(k) >= 0:
						want.Hits++
					default:
						want.Misses++
						if present[k] {
							ref.insert(k)
						} else {
							wantFault = &p
						}
					}
				}
				want.Cycles = want.Hits*cfg.ERATHitCycles + want.Misses*cfg.WalkCycles
				if wantFault != nil {
					want.Cycles += cfg.FaultTripCycles
				}
				if injected {
					m.SetInjector(always)
					defer m.SetInjector(nil)
				}
				got, err := m.TranslateRangeStats(pid, vpn*ps+uint64(rng.Intn(ps)), (n-1)*ps+1)
				var f *Fault
				if got != want || errors.As(err, &f) != (wantFault != nil) || (f != nil && f.VA != *wantFault*ps) {
					t.Fatalf("entries=%d seed=%d: translate pid %d vpn %d+%d injected=%v: got %+v %v, want %+v fault %v",
						entries, seed, pid, vpn, n, injected, got, err, want, wantFault)
				}
			}
			step := func(op int) {
				pid := PID(1 + rng.Intn(2))
				vpn := uint64(rng.Intn(npages))
				n := 1 + rng.Intn(4)
				k := [2]uint64{uint64(pid), vpn}
				switch op {
				case 0, 1, 2, 3:
					translate(pid, vpn, n, false)
				case 4:
					translate(pid, vpn, n, true)
				case 5:
					resident := rng.Intn(2) == 0
					if err := m.Map(pid, vpn*ps, n*ps, resident); err != nil {
						t.Fatal(err)
					}
					for p := vpn; p < vpn+uint64(n); p++ {
						if _, mapped := present[[2]uint64{uint64(pid), p}]; !mapped || resident {
							present[[2]uint64{uint64(pid), p}] = resident
						}
					}
				case 6:
					if _, mapped := present[k]; mapped {
						if err := m.Touch(pid, vpn*ps); err != nil {
							t.Fatal(err)
						}
						present[k] = true
					}
				case 7:
					m.Evict(pid, vpn*ps+7)
					if _, mapped := present[k]; mapped {
						present[k] = false
					}
					ref.remove(k)
				case 8:
					m.Unmap(pid, vpn*ps, n*ps)
					for p := vpn; p < vpn+uint64(n); p++ {
						delete(present, [2]uint64{uint64(pid), p})
						ref.remove([2]uint64{uint64(pid), p})
					}
				case 9:
					if rng.Intn(8) == 0 {
						m.InvalidateERAT()
						ref.keys = nil
					}
				}
				if m.erat.n > entries || m.erat.n != len(ref.keys) {
					t.Fatalf("entries=%d seed=%d: ring holds %d, reference %d", entries, seed, m.erat.n, len(ref.keys))
				}
				for age, k := range ref.keys {
					if s := m.erat.slots[m.erat.at(age)]; s.pid != PID(k[0]) || s.vpn != k[1] {
						t.Fatalf("entries=%d seed=%d: age %d is (%d,%d), reference (%d,%d)", entries, seed, age, s.pid, s.vpn, k[0], k[1])
					}
				}
			}

			// The ghost: a full cache, one page stolen, two new pages in.
			if err := m.Map(1, 0, (entries+2)*ps, true); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < entries+2; p++ {
				present[[2]uint64{1, uint64(p)}] = true
			}
			translate(1, 0, entries, false)
			m.Evict(1, 0)
			present[[2]uint64{1, 0}] = false
			ref.remove([2]uint64{1, 0})
			translate(1, uint64(entries), 2, false)
			if m.erat.n != entries {
				t.Fatalf("entries=%d: %d cached after fill, evict, two inserts", entries, m.erat.n)
			}
			for i := 0; i < 2000; i++ {
				step(rng.Intn(10))
			}
		}
	}
}
