package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nxzip/internal/telemetry"
	"nxzip/internal/vas"
)

// Device is what Settled reads of an *nx.Device. It is declared here, not
// imported, so that internal/nx's own tests can use this package.
type Device interface {
	Switchboard() *vas.Switchboard
	MetricsSnapshot() *telemetry.Snapshot
}

// Settled holds devices at rest to the conservation laws a test otherwise
// only assumes. Every entry that left a receive FIFO was completed, once,
// and none is waiting. Every send window's credits are home, bar the ones
// an injector swallowed. The engines' ledgers add up to the device's
// counters — bytes in and out, and completions per code; an engine does
// not count a CRB it refused at parse (a codec it does not serve, a
// malformed descriptor), so requests and invalid-crb may differ, by the
// same number. And no call into the library has left a goroutine behind.
// Call it when the traffic has returned; only requests that went through a
// Context are on both sides of the ledger law.
func Settled(t testing.TB, devs ...Device) {
	t.Helper()
	for i, d := range devs {
		sb := d.Switchboard()
		st := sb.Stats()
		if st.Dequeues != st.Completes || sb.Occupancy() != 0 {
			t.Errorf("device %d: %d dequeues, %d completes, %d entries still queued", i, st.Dequeues, st.Completes, sb.Occupancy())
		}
		if out := int64(sb.CreditsOut()); out != st.CreditLeaks {
			t.Errorf("device %d: %d credits not home, %d leaked by the injector", i, out, st.CreditLeaks)
		}
		snap := d.MetricsSnapshot()
		for _, n := range []string{"in_bytes", "out_bytes"} {
			if eng, dev := snap.CounterSum("nx.engine."+n), snap.Counter("nx."+n, ""); eng != dev {
				t.Errorf("device %d: engines' %s sum to %d, the device counted %d", i, n, eng, dev)
			}
		}
		refused := snap.Counter("nx.requests", "") - snap.CounterSum("nx.engine.requests")
		for _, c := range snap.Counters {
			if c.Name != "nx.cc" {
				continue
			}
			var eng int64
			for _, e := range snap.Counters {
				if e.Name == "nx.engine.cc" && strings.HasSuffix(e.Label, "/"+c.Label) {
					eng += e.Value
				}
			}
			want := eng
			if c.Label == "invalid-crb" {
				want += refused
			}
			if c.Value != want {
				t.Errorf("device %d: %d %s completions, the engines' ledgers hold %d (%d requests refused at parse)", i, c.Value, c.Label, eng, refused)
			}
		}
	}
	for _, g := range LeftBehind() {
		t.Errorf("goroutine left behind:\n%s", g)
	}
}

// LeftBehind lists the goroutines a library function started that are
// still alive two seconds on — the stacks of what Settled reports. It takes
// no testing.TB, so a TestMain can ask it after m.Run.
func LeftBehind() []string {
	var left []string
	poll(func() bool { left = strays(); return len(left) == 0 })
	return left
}

// GoroutinesBack fails the test unless the goroutine count is back at
// base, the count a test took before it started what it checks. It is the
// count-only form of Settled's goroutine look, for a test that owns every
// goroutine in the process: what there is to wait for is the instant
// between a helper's last statement and its exit.
func GoroutinesBack(t testing.TB, base int, when string) {
	t.Helper()
	if !poll(func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("%s: %d goroutines, %d before", when, runtime.NumGoroutine(), base)
	}
}

// poll reports whether done holds within two seconds, yielding between
// looks.
func poll(done func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); !done(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// strays lists the goroutines a library function started: created by a
// function of this module outside its test files. internal/obs is exempt —
// a server runs until its owner closes it, which a test does after this
// look.
func strays() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		i := strings.LastIndex(g, "\ncreated by nxzip")
		if i < 0 {
			continue
		}
		if by := g[i+1:]; !strings.HasPrefix(by, "created by nxzip/internal/obs.") && !strings.Contains(by, "_test.go:") {
			out = append(out, g)
		}
	}
	return out
}
