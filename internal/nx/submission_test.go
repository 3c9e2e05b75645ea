package nx

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
	"nxzip/internal/telemetry"
	"nxzip/internal/testutil"
)

// subResult is one request's outcome, whichever entry point carried it.
type subResult struct {
	csb *CSB
	rep *Report
	err error
}

// submitPath is one public entry into the submission protocol. Every
// path takes n CRBs per call; the fault and gate rows instrument the
// request at index probe and leave the others as plain fillers.
type submitPath struct {
	name  string
	n     int
	probe int
	sync  bool // z15 synchronous interface: no paste, no queue phases
	run   func(ctx *Context, crbs []CRB) ([]subResult, error)
}

func batchPath(name string, n, probe int) submitPath {
	return submitPath{name: name, n: n, probe: probe, run: func(ctx *Context, crbs []CRB) ([]subResult, error) {
		entries := make([]BatchEntry, len(crbs))
		for i := range crbs {
			entries[i].CRB = crbs[i]
		}
		err := ctx.SubmitBatch(entries)
		res := make([]subResult, len(entries))
		for i := range entries {
			res[i] = subResult{&entries[i].CSB, &entries[i].Rep, entries[i].Err}
		}
		return res, err
	}}
}

var submitPaths = []submitPath{
	{name: "Submit", n: 1, run: func(ctx *Context, crbs []CRB) ([]subResult, error) {
		csb, rep, err := ctx.Submit(&crbs[0])
		return []subResult{{csb, rep, err}}, nil
	}},
	{name: "SubmitInto", n: 1, run: func(ctx *Context, crbs []CRB) ([]subResult, error) {
		csb, rep := &CSB{}, &Report{}
		err := ctx.SubmitInto(&crbs[0], csb, rep)
		return []subResult{{csb, rep, err}}, nil
	}},
	batchPath("SubmitBatch1", 1, 0),
	batchPath("SubmitBatch4", 4, 1),
	{name: "SyncCall", n: 1, sync: true, run: func(ctx *Context, crbs []CRB) ([]subResult, error) {
		csb, rep, err := ctx.SyncCall(&crbs[0])
		return []subResult{{csb, rep, err}}, nil
	}},
}

// failure folds a call-level error and the probe's own error into the
// one error the caller of that path would see for the probe request.
func (p submitPath) failure(res []subResult, err error) error {
	if err != nil {
		return err
	}
	return res[p.probe].err
}

var submitDevices = []struct {
	name string
	cfg  func() DeviceConfig
}{
	{"p9", P9Device},
	{"z15", Z15Device},
}

// eachSubmitPath runs fn once per (device, path) pair that exists: the
// synchronous interface only on a pipeline that defines it.
func eachSubmitPath(t *testing.T, fn func(t *testing.T, cfg DeviceConfig, p submitPath)) {
	for _, dv := range submitDevices {
		for _, p := range submitPaths {
			cfg := dv.cfg()
			if p.sync && cfg.Engine.Pipeline.SyncSetupCycles <= 0 {
				continue
			}
			t.Run(dv.name+"/"+p.name, func(t *testing.T) { fn(t, cfg, p) })
		}
	}
}

// chaosConfig is chaosDevice's fast recovery budget on either engine.
func chaosConfig(cfg DeviceConfig, p faultinject.Profile) (*Device, *faultinject.Injector) {
	return chaosDevice(p, func(c *DeviceConfig) { c.Engine = cfg.Engine })
}

// TestSubmissionConformance holds every entry into the submission
// protocol — Submit, SubmitInto, SubmitBatch of 1 and of 4, and the z15
// SyncCall — to one behaviour: the same CRB yields the same bytes, CC
// and cycles (up to the documented dispatch discounts), advances every
// counter once per request, emits one identity-stamped span per request,
// and fails with the same typed error under the same fault.
func TestSubmissionConformance(t *testing.T) {
	src := corpus.Generate(corpus.Text, 8<<10, 40)
	base := CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: src, ReqID: 4242, Hop: 2}
	fill := func(n int) []CRB {
		crbs := make([]CRB, n)
		for i := range crbs {
			crbs[i] = base
		}
		return crbs
	}

	t.Run("equal", func(t *testing.T) {
		eachSubmitPath(t, func(t *testing.T, cfg DeviceConfig, p submitPath) {
			refCSB, refRep, err := NewDevice(cfg).OpenContext(1).Submit(&CRB{Func: base.Func, Wrap: base.Wrap, Input: src})
			if err != nil || refCSB.CC != CCSuccess {
				t.Fatalf("reference: err=%v cc=%v", err, refCSB.CC)
			}
			dev := NewDevice(cfg)
			sink := telemetry.NewCollectSink()
			dev.StartTrace(sink)
			ctx := dev.OpenContext(1)
			ctx.SetTenant(7)
			ctx.SetPriorityName("interactive")
			res, err := p.run(ctx, fill(p.n))
			if err != nil {
				t.Fatal(err)
			}
			pl := cfg.Engine.Pipeline
			var busy, outBytes int64
			for i, r := range res {
				if r.err != nil || r.csb.CC != CCSuccess {
					t.Fatalf("request %d: err=%v cc=%v", i, r.err, r.csb.CC)
				}
				if !bytes.Equal(r.csb.Output, refCSB.Output) {
					t.Fatalf("request %d: output differs from Submit's", i)
				}
				// The only cycle differences between paths are the
				// dispatch discounts: sync setup for SyncCall; chained
				// setup on every batch entry but the first, chained
				// complete on every entry but the last.
				want := refRep.TotalCycles
				if p.sync {
					want -= pl.SetupCycles - pl.SyncSetupCycles
				}
				if i > 0 {
					want -= pl.SetupCycles - pl.ChainSetupCycles
				}
				if i < p.n-1 {
					want -= pl.CompleteCycles - pl.ChainCompleteCycles
				}
				if r.rep.TotalCycles != want || r.csb.Cycles.Total != want {
					t.Fatalf("request %d: TotalCycles rep=%d csb=%d, want %d (Submit %d)",
						i, r.rep.TotalCycles, r.csb.Cycles.Total, want, refRep.TotalCycles)
				}
				if r.rep.InBytes != len(src) || r.rep.OutBytes != len(refCSB.Output) || r.rep.Retries != 0 || r.rep.WastedCycles != 0 {
					t.Fatalf("request %d: report %+v", i, *r.rep)
				}
				busy += r.csb.Cycles.Total
				outBytes += int64(r.csb.TPBC)
			}
			if got := dev.BusyCycles(); got != busy {
				t.Fatalf("BusyCycles = %d, completions sum to %d", got, busy)
			}
			n := int64(p.n)
			snap := dev.MetricsSnapshot()
			for _, c := range []struct {
				name, label string
				want        int64
			}{
				{"nx.requests", "", n},
				{"nx.in_bytes", "", n * int64(len(src))},
				{"nx.out_bytes", "", outBytes},
				{"nx.cc", CCSuccess.String(), n},
				{"nx.codec.requests", CodecDeflate.String(), n},
				{"nx.codec.in_bytes", CodecDeflate.String(), n * int64(len(src))},
				{"nx.codec.out_bytes", CodecDeflate.String(), outBytes},
			} {
				if got := snap.Counter(c.name, c.label); got != c.want {
					t.Errorf("%s{%s} = %d, want %d", c.name, c.label, got, c.want)
				}
			}
			spans := sink.Spans()
			if len(spans) != p.n {
				t.Fatalf("%d spans for %d requests", len(spans), p.n)
			}
			for i, s := range spans {
				if s.ReqID != base.ReqID || s.Hop != base.Hop || s.Tenant != 7 || s.Priority != "interactive" {
					t.Errorf("span %d identity: req=%d hop=%d tenant=%d prio=%q", i, s.ReqID, s.Hop, s.Tenant, s.Priority)
				}
				if s.CC != CCSuccess.String() || s.InBytes != len(src) || s.DeviceCycles != res[i].csb.Cycles.Total {
					t.Errorf("span %d: cc=%q in=%d cycles=%d", i, s.CC, s.InBytes, s.DeviceCycles)
				}
				stages := s.Stages
				if p.sync {
					if s.Window != -1 {
						t.Errorf("sync span window = %d, want -1", s.Window)
					}
				} else {
					if len(stages) < 3 || stages[0].Stage != telemetry.StageSubmit || stages[1].Stage != telemetry.StageFIFO {
						t.Fatalf("span %d stages %v: want submit, fifo, pipeline…", i, stages)
					}
					stages = stages[2:]
				}
				if len(stages) == 0 {
					t.Fatalf("span %d has no pipeline stages", i)
				}
				for _, st := range stages {
					if st.Stage < telemetry.StageSetup || st.Stage > telemetry.StageComplete {
						t.Errorf("span %d: stage %s after the queue phases", i, st.Stage)
					}
				}
			}
		})
	})

	// mapped gives the probe request real operand addresses so the engine
	// translates them: a demand-paged source page faults on first touch.
	mapped := func(t *testing.T, ctx *Context, p submitPath, resident bool) []CRB {
		crbs := fill(p.n)
		srcVA, err := ctx.MapBuffer(len(src), resident)
		if err != nil {
			t.Fatal(err)
		}
		dstVA, err := ctx.MapBuffer(2*len(src)+1024, true)
		if err != nil {
			t.Fatal(err)
		}
		crbs[p.probe].SourceVA, crbs[p.probe].TargetVA = srcVA, dstVA
		return crbs
	}

	t.Run("fault", func(t *testing.T) {
		eachSubmitPath(t, func(t *testing.T, cfg DeviceConfig, p submitPath) {
			// What the faulted first round costs, read off a bare engine
			// on an identically laid-out device.
			refDev := NewDevice(cfg)
			refCtx := refDev.OpenContext(1)
			refCRB := mapped(t, refCtx, p, false)[p.probe]
			var first CSB
			refDev.Engine(0).ProcessInto(refCtx.PID(), &refCRB, &first)
			if first.CC != CCTranslationFault {
				t.Fatalf("reference first round: cc=%v", first.CC)
			}
			dev := NewDevice(cfg)
			ctx := dev.OpenContext(1)
			res, err := p.run(ctx, mapped(t, ctx, p, false))
			if err := p.failure(res, err); err != nil {
				t.Fatal(err)
			}
			r := res[p.probe]
			if r.csb.CC != CCSuccess {
				t.Fatalf("cc=%v", r.csb.CC)
			}
			if r.rep.Retries != 1 || r.rep.WastedCycles != first.Cycles.Total {
				t.Fatalf("Retries=%d WastedCycles=%d, want 1 and the first round's %d",
					r.rep.Retries, r.rep.WastedCycles, first.Cycles.Total)
			}
			if r.rep.TotalCycles != r.rep.WastedCycles+r.csb.Cycles.Total {
				t.Fatalf("TotalCycles=%d, want wasted %d + final %d", r.rep.TotalCycles, r.rep.WastedCycles, r.csb.Cycles.Total)
			}
			snap := dev.MetricsSnapshot()
			if got := snap.Counter("nx.fault_retries", ""); got != 1 {
				t.Fatalf("nx.fault_retries = %d, want 1", got)
			}
			// The faulted round is a request the engine served too.
			if got := snap.Counter("nx.requests", ""); got != int64(p.n)+1 {
				t.Fatalf("nx.requests = %d, want %d", got, p.n+1)
			}
			if got := snap.Counter("nx.cc", CCTranslationFault.String()); got != 1 {
				t.Fatalf("nx.cc{fault} = %d, want 1", got)
			}
		})
	})

	t.Run("fault-storm", func(t *testing.T) {
		eachSubmitPath(t, func(t *testing.T, cfg DeviceConfig, p submitPath) {
			dev, _ := chaosConfig(cfg, faultinject.Profile{TransFault: 1})
			ctx := dev.OpenContext(1)
			res, err := p.run(ctx, mapped(t, ctx, p, true))
			if err := p.failure(res, err); !errors.Is(err, ErrFaultStorm) {
				t.Fatalf("err = %v, want ErrFaultStorm", err)
			}
			if got := dev.MetricsSnapshot().Counter("nx.fault_storms", ""); got != 1 {
				t.Fatalf("nx.fault_storms = %d, want 1", got)
			}
		})
	})

	t.Run("engine-hang", func(t *testing.T) {
		eachSubmitPath(t, func(t *testing.T, cfg DeviceConfig, p submitPath) {
			if p.sync {
				t.Skip("the synchronous interface has no queue to hang in")
			}
			dev, _ := chaosConfig(cfg, faultinject.Profile{EngineHang: 1})
			ctx := dev.OpenContext(1)
			res, err := p.run(ctx, fill(p.n))
			if err := p.failure(res, err); !errors.Is(err, ErrEngineHang) {
				t.Fatalf("err = %v, want ErrEngineHang", err)
			}
			if got := dev.MetricsSnapshot().Counter("nx.requests", ""); got != 0 {
				t.Fatalf("nx.requests = %d after a hang, want 0", got)
			}
			dev.SetInjector(nil)
			st := dev.Switchboard().Stats()
			if st.Dequeues != st.Completes {
				t.Fatalf("dequeues %d != completes %d", st.Dequeues, st.Completes)
			}
			if got, _ := dev.Switchboard().Credits(ctx.Window()); got != cfg.VAS.CreditsPerSend {
				t.Fatalf("window holds %d credits after the hang, want %d", got, cfg.VAS.CreditsPerSend)
			}
			res, err = p.run(ctx, fill(p.n))
			if err := p.failure(res, err); err != nil {
				t.Fatalf("request after the hang: %v", err)
			}
		})
	})

	gates := []struct {
		name    string
		arm     func(inj *faultinject.Injector, crb *CRB)
		want    error
		counter string
		served  func(p submitPath) int64 // requests that still reach an engine
	}{
		{"offline", func(inj *faultinject.Injector, _ *CRB) { inj.SetOffline(true) },
			ErrDeviceOffline, "nx.offline_rejects", func(submitPath) int64 { return 0 }},
		{"canceled", func(_ *faultinject.Injector, crb *CRB) {
			ch := make(chan struct{})
			close(ch)
			crb.Cancel = ch
		}, ErrCanceled, "", func(p submitPath) int64 { return int64(p.n) - 1 }},
		{"deadline", func(_ *faultinject.Injector, crb *CRB) { crb.Deadline = time.Now().Add(-time.Second) },
			ErrDeadlineExceeded, "nx.deadline_exceeded", func(p submitPath) int64 { return int64(p.n) - 1 }},
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			eachSubmitPath(t, func(t *testing.T, cfg DeviceConfig, p submitPath) {
				dev, inj := chaosConfig(cfg, faultinject.Profile{})
				ctx := dev.OpenContext(1)
				crbs := fill(p.n)
				g.arm(inj, &crbs[p.probe])
				res, err := p.run(ctx, crbs)
				if err := p.failure(res, err); !errors.Is(err, g.want) {
					t.Fatalf("err = %v, want %v", err, g.want)
				}
				snap := dev.MetricsSnapshot()
				if g.counter != "" {
					if got := snap.Counter(g.counter, ""); got != 1 {
						t.Fatalf("%s = %d, want 1", g.counter, got)
					}
				}
				if got, want := snap.Counter("nx.requests", ""), g.served(p); got != want {
					t.Fatalf("nx.requests = %d, want %d", got, want)
				}
			})
		})
	}
}

// TestSubmissionConcurrentPaths mixes single and batch envelopes from
// several goroutines on one two-credit send window with injected paste
// bounces, so submitters bounce, back off, drain each other's envelopes
// and wait on completions a neighbour runs — the pooled envelope's
// hand-offs under the race detector.
func TestSubmissionConcurrentPaths(t *testing.T) {
	cfg := Z15Device()
	cfg.Engines = 2
	cfg.VAS.CreditsPerSend = 2
	dev := NewDevice(cfg)
	dev.SetInjector(faultinject.New(42, faultinject.Profile{PasteReject: 0.3}))
	dev.StartTrace(telemetry.NewCollectSink())
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	src := corpus.Generate(corpus.JSONLogs, 2<<10, 11)
	want, _, err := NewDevice(cfg).OpenContext(1).Submit(&CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: src})
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 6, 24
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < rounds; i++ {
				p := submitPaths[(w+i)%4] // the four queued paths
				crbs := make([]CRB, p.n)
				for k := range crbs {
					crbs[k] = CRB{Func: FCCompressFHT, Wrap: WrapGzip, Input: src}
				}
				res, err := p.run(ctx, crbs)
				for k := range res {
					if err == nil {
						err = res[k].err
					}
					if err == nil && !bytes.Equal(res[k].csb.Output, want.Output) {
						err = errors.New(p.name + ": output differs")
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	st := dev.Switchboard().Stats()
	if st.Dequeues != st.Completes || st.Completes != workers*rounds {
		t.Fatalf("dequeues %d, completes %d, want %d envelopes", st.Dequeues, st.Completes, workers*rounds)
	}
	if st.InjectedRejects == 0 {
		t.Fatal("no paste bounced")
	}
	if got, _ := dev.Switchboard().Credits(ctx.Window()); got != cfg.VAS.CreditsPerSend {
		t.Fatalf("window holds %d credits at rest, want %d", got, cfg.VAS.CreditsPerSend)
	}
}

// TestSubmitIntoAllocFree is the device-layer zero-alloc gate: with
// caller-owned CRB, CSB, Report and target buffer and no tracer, a
// steady-state SubmitInto allocates nothing.
func TestSubmitIntoAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instruments allocations; gate runs in non-race builds")
	}
	// The generate-DHT function code builds its table in the engine's
	// encoder scratch: the same zero as the fixed table.
	for _, fc := range []FuncCode{FCCompressFHT, FCCompressDHT} {
		t.Run(fc.String(), func(t *testing.T) { submitIntoAllocFree(t, fc) })
	}
}

func submitIntoAllocFree(t *testing.T, fc FuncCode) {
	dev := NewDevice(P9Device())
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	src := corpus.Generate(corpus.JSONLogs, 4<<10, 3)
	capOut := 2*len(src) + 1024
	srcVA, err := ctx.AcquireVA(len(src))
	if err != nil {
		t.Fatal(err)
	}
	dstVA, err := ctx.AcquireVA(capOut)
	if err != nil {
		t.Fatal(err)
	}
	crb := CRB{Func: fc, Wrap: WrapGzip, Input: src, SourceVA: srcVA, TargetVA: dstVA,
		TargetCap: capOut, Target: make([]byte, 0, capOut)}
	var (
		csb CSB
		rep Report
	)
	op := func() {
		if err := ctx.SubmitInto(&crb, &csb, &rep); err != nil || csb.CC != CCSuccess {
			t.Fatalf("err=%v cc=%v", err, csb.CC)
		}
	}
	for i := 0; i < 4; i++ { // warm the pending pool and the engine scratch
		op()
	}
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Fatalf("SubmitInto: %.1f allocs per steady-state request, want 0", n)
	}
}

// TestSplitCompressAllocFree is TestSubmitIntoAllocFree's zero for a 1 MiB
// generate-DHT compress into a caller target, whose LZ stage runs split
// across two goroutines. testing.AllocsPerRun runs at one P, where no
// compress splits, so the count is the process's, the least of a few
// windows of compresses at two Ps (testutil.WindowMallocs).
func TestSplitCompressAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instruments allocations; gate runs in non-race builds")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	ctx := NewDevice(P9Device()).OpenContext(1)
	defer ctx.Close()
	base := runtime.NumGoroutine()
	src := corpus.Generate(corpus.Text, 1<<20, 3)
	crb := CRB{Func: FCCompressDHT, Wrap: WrapGzip, Input: src, Target: make([]byte, 0, 2*len(src)+1024)}
	var (
		csb CSB
		rep Report
	)
	op := func() {
		if err := ctx.SubmitInto(&crb, &csb, &rep); err != nil || csb.CC != CCSuccess {
			t.Fatalf("err=%v cc=%v", err, csb.CC)
		}
	}
	testutil.SpareGoroutineDescriptors()
	for i := 0; i < 4; i++ { // warm the pools and both work areas
		op()
	}
	testutil.GoroutinesBack(t, base, "before counting")
	const windows, runs = 5, 10
	if counts := testutil.WindowMallocs(op, windows, runs); counts != nil {
		t.Fatalf("allocations in each of %d windows of %d split compresses: %v, want a window of 0", windows, runs, counts)
	}
}
