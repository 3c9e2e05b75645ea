package nx

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
)

// chaosDevice builds a device with a fast recovery budget (so storm
// tests trip their caps in microseconds, not milliseconds) and the given
// injection profile installed.
func chaosDevice(p faultinject.Profile, tune func(*DeviceConfig)) (*Device, *faultinject.Injector) {
	cfg := P9Device()
	cfg.Submit = SubmitPolicy{
		MaxFaultRounds:   4,
		MaxBackoffWaits:  4,
		BackoffBase:      time.Microsecond,
		BackoffMax:       2 * time.Microsecond,
		MaxPasteAttempts: 1 << 20,
	}
	if tune != nil {
		tune(&cfg)
	}
	dev := NewDevice(cfg)
	inj := faultinject.New(42, p)
	dev.SetInjector(inj)
	return dev, inj
}

func TestCCErrMapping(t *testing.T) {
	cases := []struct {
		cc   CC
		want error
	}{
		{CCTranslationFault, ErrTranslationFault},
		{CCTargetSpace, ErrTargetSpace},
		{CCDataCorrupt, ErrDataCorrupt},
		{CCInvalidCRB, ErrInvalidCRB},
		{CCCRCError, ErrCRCMismatch},
	}
	seen := map[error]bool{}
	for _, c := range cases {
		got := c.cc.Err()
		if !errors.Is(got, c.want) {
			t.Errorf("CC %s Err() = %v, want %v", c.cc, got, c.want)
		}
		if seen[got] {
			t.Errorf("CC %s maps to an error already used by another CC", c.cc)
		}
		seen[got] = true
	}
	if CCSuccess.Err() != nil {
		t.Errorf("CCSuccess.Err() = %v, want nil", CCSuccess.Err())
	}
}

func TestInjectedCCBecomesTypedError(t *testing.T) {
	cases := []struct {
		name    string
		profile faultinject.Profile
		want    error
	}{
		{"crc-error", faultinject.Profile{CRCError: 1}, ErrCRCMismatch},
		{"data-check", faultinject.Profile{DataCheck: 1}, ErrDataCorrupt},
		{"invalid-crb", faultinject.Profile{InvalidCRB: 1}, ErrInvalidCRB},
	}
	src := []byte("the quick brown fox jumps over the lazy dog")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dev, _ := chaosDevice(c.profile, nil)
			ctx := dev.OpenContext(1)
			defer ctx.Close()
			_, _, err := ctx.Compress(src, FCCompressFHT, WrapGzip, true)
			if !errors.Is(err, c.want) {
				t.Fatalf("injected %s: err = %v, not errors.Is %v", c.name, err, c.want)
			}
		})
	}
}

func TestFaultStormTripsRoundCap(t *testing.T) {
	dev, inj := chaosDevice(faultinject.Profile{TransFault: 1}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	_, _, err := ctx.Compress([]byte("storm storm storm"), FCCompressFHT, WrapGzip, true)
	if !errors.Is(err, ErrFaultStorm) {
		t.Fatalf("permanent injected faults: err = %v, want ErrFaultStorm", err)
	}
	if !Retryable(err) {
		t.Fatal("ErrFaultStorm must be retryable (another device may be healthy)")
	}
	if inj.Injected(faultinject.TransFault) == 0 {
		t.Fatal("injector recorded no translation faults")
	}
	if got := dev.MetricsSnapshot().Counter("nx.fault_storms", ""); got != 1 {
		t.Fatalf("nx.fault_storms = %d, want 1", got)
	}
}

func TestEngineHangSurfaces(t *testing.T) {
	dev, _ := chaosDevice(faultinject.Profile{EngineHang: 1}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	_, _, err := ctx.Compress([]byte("hang"), FCCompressFHT, WrapGzip, true)
	if !errors.Is(err, ErrEngineHang) {
		t.Fatalf("hung engine: err = %v, want ErrEngineHang", err)
	}
	if !Retryable(err) {
		t.Fatal("ErrEngineHang must be retryable")
	}
	// The credit must have been returned even though the CSB never was:
	// a second request on a healed device still has credits to paste with.
	dev.SetInjector(nil)
	if _, _, err := ctx.Compress([]byte("healed"), FCCompressFHT, WrapGzip, true); err != nil {
		t.Fatalf("request after hang: %v (credit leaked by hang path?)", err)
	}
}

func TestDeviceOfflineAndRevive(t *testing.T) {
	dev, inj := chaosDevice(faultinject.Profile{}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	inj.SetOffline(true)
	if !dev.Offline() {
		t.Fatal("Device.Offline() false after SetOffline(true)")
	}
	_, _, err := ctx.Compress([]byte("dead"), FCCompressFHT, WrapGzip, true)
	if !errors.Is(err, ErrDeviceOffline) {
		t.Fatalf("offlined device: err = %v, want ErrDeviceOffline", err)
	}
	inj.SetOffline(false)
	if _, _, err := ctx.Compress([]byte("alive"), FCCompressFHT, WrapGzip, true); err != nil {
		t.Fatalf("revived device: %v", err)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	dev, _ := chaosDevice(faultinject.Profile{}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	csb, _, err := ctx.Submit(&CRB{
		Func: FCCompressFHT, Wrap: WrapGzip, Input: []byte("late"),
		Deadline: time.Now().Add(-time.Millisecond),
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v (csb %v), want ErrDeadlineExceeded", err, csb)
	}
	if got := dev.MetricsSnapshot().Counter("nx.deadline_exceeded", ""); got != 1 {
		t.Fatalf("nx.deadline_exceeded = %d, want 1", got)
	}
}

func TestCancelation(t *testing.T) {
	dev, _ := chaosDevice(faultinject.Profile{}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	cancel := make(chan struct{})
	close(cancel)
	_, _, err := ctx.Submit(&CRB{
		Func: FCCompressFHT, Wrap: WrapGzip, Input: []byte("nope"),
		Cancel: cancel,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled request: err = %v, want ErrCanceled", err)
	}
	if Retryable(err) {
		t.Fatal("ErrCanceled must not be retryable — the caller gave up")
	}
}

func TestCreditLeakWedgesWindow(t *testing.T) {
	dev, inj := chaosDevice(faultinject.Profile{CreditLeak: 1}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	src := []byte("leak leak leak leak")
	// Every completion leaks its credit; the window has a finite pool, so
	// requests succeed until it runs dry, then paste bounces with an empty
	// FIFO until the backoff cap trips ErrDeviceBusy.
	var err error
	for i := 0; i < 64; i++ {
		if _, _, err = ctx.Compress(src, FCCompressFHT, WrapGzip, true); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrDeviceBusy) {
		t.Fatalf("wedged window: err = %v, want ErrDeviceBusy", err)
	}
	if inj.Injected(faultinject.CreditLeak) == 0 {
		t.Fatal("injector recorded no credit leaks")
	}
	if got := dev.Switchboard().Stats().CreditLeaks; got == 0 {
		t.Fatal("switchboard stats recorded no credit leaks")
	}
}

func TestPasteRejectionBackoffAccounting(t *testing.T) {
	dev, _ := chaosDevice(faultinject.Profile{PasteReject: 0.6}, func(cfg *DeviceConfig) {
		cfg.Submit.MaxBackoffWaits = 64
	})
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	src := []byte("backoff backoff backoff backoff")
	var rejects, waits int
	var backoffTime time.Duration
	for i := 0; i < 16; i++ {
		_, rep, err := ctx.Compress(src, FCCompressFHT, WrapGzip, true)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		rejects += rep.PasteRejects
		waits += rep.BackoffWaits
		backoffTime += rep.BackoffTime
		if rep.BackoffWaits > 0 && rep.WastedCycles == 0 {
			t.Fatal("backoff waits taken but WastedCycles = 0 — waits not charged")
		}
	}
	if rejects == 0 {
		t.Fatal("0.6 paste-reject rate over 16 requests produced no rejects")
	}
	if waits == 0 || backoffTime == 0 {
		t.Fatalf("rejected pastes with an empty FIFO must backoff: waits=%d time=%v", waits, backoffTime)
	}
	snap := dev.MetricsSnapshot()
	if got := snap.Counter("nx.backoff_waits", ""); got != int64(waits) {
		t.Fatalf("nx.backoff_waits = %d, reports summed to %d", got, waits)
	}
}

// TestResumeRequestsExemptFromInjectedCC pins the state-safety contract:
// a CRB carrying DecompState has already advanced the inflate session by
// the time a CC would be injected, so the engine never flips its
// completion — otherwise the stream owner could neither retry (double
// feed) nor surface a truthful error.
func TestResumeRequestsExemptFromInjectedCC(t *testing.T) {
	clean := NewDevice(P9Device())
	cctx := clean.OpenContext(1)
	defer cctx.Close()
	plain := []byte("resume me resume me resume me resume me")
	raw, _, err := cctx.Compress(plain, FCCompressFHT, WrapRaw, true)
	if err != nil {
		t.Fatal(err)
	}

	dev, _ := chaosDevice(faultinject.Profile{CRCError: 1, DataCheck: 1, InvalidCRB: 1}, nil)
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	st := NewDecompState(0)
	csb, _, err := ctx.Submit(&CRB{Func: FCDecompress, Wrap: WrapRaw, Input: raw, DecompState: st})
	if err != nil {
		t.Fatal(err)
	}
	if csb.CC != CCSuccess {
		t.Fatalf("resume request got injected CC %s — resume state is now unrecoverable", csb.CC)
	}
	if string(csb.Output) != string(plain) {
		t.Fatalf("resume output mismatch: %q", csb.Output)
	}
}

// TestResumeStepHeldAcrossTargetFault: a resume request advances its
// session before the engine knows how far the output reaches, so a fault on
// a reached target page arrives with the step already taken. The step is
// held in the state and the restart delivers it — through the engine again,
// or through SoftFeed when the fault rounds ran out — never a second feed.
func TestResumeStepHeldAcrossTargetFault(t *testing.T) {
	plain := corpus.Generate(corpus.Text, 192<<10, 61)
	cctx := NewDevice(P9Device()).OpenContext(1)
	raw, _, err := cctx.Compress(plain, FCCompressDHT, WrapRaw, true)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 32 << 10 // compressed; two pages of plaintext a step
	for _, rounds := range []int{0, 2} {
		cfg := P9Device()
		cfg.Submit.MaxFaultRounds = rounds // 0: the default, enough for every page
		dev := NewDevice(cfg)
		ctx := dev.OpenContext(1)
		st := NewDecompState(0)
		var got []byte
		faults, storms := 0, 0
		for off := 0; off < len(raw); off += chunk {
			in := raw[off:min(off+chunk, len(raw))]
			final := off+chunk >= len(raw)
			// A demand-paged target per step: its first page faults before
			// the operation, every later one it reaches after.
			dstVA, err := ctx.MapBuffer(1<<20, false)
			if err != nil {
				t.Fatal(err)
			}
			csb, rep, err := ctx.Submit(&CRB{Func: FCDecompress, Wrap: WrapRaw, Input: in,
				DecompState: st, NotFinal: !final, TargetVA: dstVA, TargetCap: 1 << 20})
			switch {
			case errors.Is(err, ErrFaultStorm):
				storms++
				out, err := st.SoftFeed(in, final)
				if err != nil {
					t.Fatalf("rounds=%d offset %d: software path after the storm: %v", rounds, off, err)
				}
				got = append(got, out...)
			case err != nil || csb.CC != CCSuccess:
				t.Fatalf("rounds=%d offset %d: %v %v %s", rounds, off, err, csb.CC, csb.Detail)
			default:
				faults += rep.Retries
				got = append(got, csb.Output...)
			}
		}
		if !bytes.Equal(got, plain) || st.Produced() != int64(len(plain)) || !st.Done() {
			t.Fatalf("rounds=%d: %d bytes decoded (%d counted, done=%v), want %d", rounds, len(got), st.Produced(), st.Done(), len(plain))
		}
		if rounds == 0 && faults < 2*(len(raw)/chunk) {
			t.Fatalf("%d fault rounds: no step faulted past its first target page", faults)
		}
		if rounds != 0 && storms == 0 {
			t.Fatal("no step ran out of fault rounds")
		}
	}
}
