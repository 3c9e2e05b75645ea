package nxzip

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
	"nxzip/internal/flightrec"
	"nxzip/internal/telemetry"
)

// flightrec_pin_test.go holds still the spans the flight recorder keeps:
// one request per reason it keeps one, each span field by field except
// the host times.

// openPinNode opens a Z15Node(1) with the recorder on, fault injectors
// installed (all off) and a submit policy that makes both kinds of
// recovery short and visible: a translation-fault storm after two rounds,
// and paste backoffs of milliseconds, long beside a 4 KiB request.
func openPinNode(t *testing.T) (*Node, *Accelerator, []*faultinject.Injector, *flightrec.Recorder) {
	t.Helper()
	cfg := Z15Node(1)
	for i := range cfg.Shape.Devices {
		sub := &cfg.Shape.Devices[i].Config.Submit
		sub.MaxFaultRounds = 2
		sub.BackoffBase, sub.BackoffMax = 4*time.Millisecond, 4*time.Millisecond
	}
	node, acc, injs := openChaosNode(t, cfg, faultinject.Profile{})
	return node, acc, injs, node.EnableFlightRecorder("")
}

// pinSpan renders every span field the pins hold, host times aside.
func pinSpan(s *telemetry.Span) string {
	var st []string
	for _, r := range s.Stages {
		st = append(st, fmt.Sprintf("%s/%d/%d", r.Stage, r.Cycles, r.Attempt))
	}
	return fmt.Sprintf("hop=%d op=%s pid=%d win=%d eng=%d in=%d out=%d cc=%s retries=%d rejects=%d erat=%d/%d cycles=%d mono=%v stages=[%s]",
		s.Hop, s.Op, s.PID, s.Window, s.Engine, s.InBytes, s.OutBytes, s.CC, s.Retries, s.PasteRejects,
		s.ERATHits, s.ERATMisses, s.DeviceCycles, s.Monotonic(), strings.Join(st, " "))
}

// TestFlightRecorderRetainedSpansPinned: for each reason the recorder
// keeps a request — an error, a software fallback, a failover, a
// translation-fault storm, a slow request — the kept request's spans
// carry the request's identity and exactly these fields.
func TestFlightRecorderRetainedSpansPinned(t *testing.T) {
	src := corpus.Generate(corpus.Text, 4<<10, 21)
	// A dynamic-table compress of src, its pages cold in the ERAT and warm.
	const (
		coldStages = "submit/0/0 fifo/0/0 setup/2000/0 translate/600/0 dht-gen/3000/0 dma-in/32/0 lz/345/0 encode/128/0 dma-out/15/0 complete/800/0"
		warmStages = "submit/0/0 fifo/0/0 setup/2000/0 translate/2/0 dht-gen/3000/0 dma-in/32/0 lz/345/0 encode/128/0 dma-out/15/0 complete/800/0"
		crcCold    = "op=compress-dht pid=1 win=0 eng=0 in=4096 out=0 cc=crc-error retries=0 rejects=0 erat=0/2 cycles=6400 mono=true stages=[" + coldStages + "]"
	)
	cases := []struct {
		name    string
		outcome telemetry.Outcome
		run     func(t *testing.T, node *Node, acc *Accelerator, injs []*faultinject.Injector)
		want    []string
	}{
		{"error", telemetry.OutcomeError, func(t *testing.T, node *Node, acc *Accelerator, injs []*faultinject.Injector) {
			lz, _, err := acc.CompressLZ4(src)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := acc.DecompressLZ4(lz, 100); err == nil {
				t.Fatal("decode past its budget succeeded")
			}
		}, []string{
			"hop=0 op=lz4-decompress pid=1 win=0 eng=0 in=0 out=0 cc=target-space-exhausted retries=0 rejects=0 erat=0/0 cycles=2822 mono=true stages=[submit/0/0 fifo/0/0 setup/2000/0 dma-in/22/0 complete/800/0]",
		}},
		{"degraded", telemetry.OutcomeDegraded, func(t *testing.T, node *Node, acc *Accelerator, injs []*faultinject.Injector) {
			for _, inj := range injs {
				inj.SetProfile(faultinject.Profile{CRCError: 1})
			}
			if _, m, err := acc.CompressGzip(src); err != nil || !m.Degraded {
				t.Fatalf("err %v, degraded %v", err, m != nil && m.Degraded)
			}
		}, []string{
			"hop=0 " + crcCold,
			"hop=1 " + crcCold,
			"hop=2 " + crcCold,
			"hop=3 " + crcCold,
			"hop=4 op=compress-dht pid=1 win=0 eng=0 in=4096 out=0 cc=crc-error retries=0 rejects=0 erat=2/0 cycles=6145 mono=true stages=[" + warmStages + "]",
		}},
		{"failover", telemetry.OutcomeOK, func(t *testing.T, node *Node, acc *Accelerator, injs []*faultinject.Injector) {
			injs[0].SetProfile(faultinject.Profile{CRCError: 1})
			if _, m, err := acc.CompressGzip(src); err != nil || m.Redispatches != 1 {
				t.Fatalf("err %v, redispatches %d", err, m.Redispatches)
			}
		}, []string{
			"hop=0 " + crcCold,
			"hop=1 op=compress-dht pid=1 win=0 eng=0 in=4096 out=1799 cc=success retries=0 rejects=0 erat=0/2 cycles=6400 mono=true stages=[" + coldStages + "]",
		}},
		{"trans-fault", telemetry.OutcomeOK, func(t *testing.T, node *Node, acc *Accelerator, injs []*faultinject.Injector) {
			injs[0].SetProfile(faultinject.Profile{TransFault: 1})
			if _, m, err := acc.CompressGzip(src); err != nil || m.Redispatches != 1 {
				t.Fatalf("err %v, redispatches %d", err, m.Redispatches)
			}
		}, []string{
			"hop=0 op=compress-dht pid=1 win=0 eng=0 in=0 out=0 cc=fault-storm retries=1 rejects=0 erat=0/2 cycles=8200 mono=true stages=[submit/0/0 fifo/0/0 setup/2000/0 translate/1300/0 complete/800/0 fault/4100/0 submit/0/1 fifo/0/1 setup/2000/1 translate/1300/1 complete/800/1]",
			"hop=1 op=compress-dht pid=1 win=0 eng=0 in=4096 out=1799 cc=success retries=0 rejects=0 erat=0/2 cycles=6400 mono=true stages=[" + coldStages + "]",
		}},
		{"slow", telemetry.OutcomeOK, func(t *testing.T, node *Node, acc *Accelerator, injs []*faultinject.Injector) {
			for i := 0; i < 128; i++ {
				if _, _, err := acc.CompressGzip(src); err != nil {
					t.Fatal(err)
				}
			}
			for _, inj := range injs {
				inj.SetProfile(faultinject.Profile{PasteReject: 0.75})
			}
			if _, _, err := acc.CompressGzip(src); err != nil {
				t.Fatal(err)
			}
		}, []string{
			"hop=0 op=compress-dht pid=1 win=0 eng=0 in=4096 out=1799 cc=success retries=0 rejects=10 erat=2/0 cycles=6145 mono=true stages=[" + warmStages + "]",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node, acc, injs, rec := openPinNode(t)
			acc.SetPriority(admission.Batch)
			tc.run(t, node, acc, injs)
			kept := rec.RetainedRequests()
			if len(kept) != 1 {
				t.Fatalf("%d requests kept, want 1", len(kept))
			}
			d := kept[0].Digest
			if d.Outcome != tc.outcome || d.Req != rec.Digests(1)[0].Req {
				t.Fatalf("kept req %d outcome %s, want the last request (%d) with %s", d.Req, d.Outcome, rec.Digests(1)[0].Req, tc.outcome)
			}
			var got []string
			for _, s := range kept[0].Spans {
				if s.ReqID != d.Req || s.Tenant != acc.nctx.ID() || s.Priority != "batch" {
					t.Errorf("span req %d tenant %d priority %q, want %d %d %q", s.ReqID, s.Tenant, s.Priority, d.Req, acc.nctx.ID(), "batch")
				}
				got = append(got, pinSpan(s))
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("kept spans:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

// TestStartTraceBesideFlightRecorder: with the recorder on, a StartTrace
// sink still receives one span per slot, a one-shot's and each batch
// entry's, every one under a request the recorder digested; and the
// recorder still keeps a failover's spans, the same ones the sink got.
func TestStartTraceBesideFlightRecorder(t *testing.T) {
	_, acc, injs, rec := openPinNode(t)
	sink := telemetry.NewCollectSink()
	acc.StartTrace(sink)
	src := corpus.Generate(corpus.Text, 4<<10, 22)
	if _, _, err := acc.CompressGzip(src); err != nil {
		t.Fatal(err)
	}
	batch := []*BatchRequest{{Src: src[:1000]}, {Src: src[1000:2500]}, {Src: src[2500:]}}
	acc.CompressBatch(batch)
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("batch entry %d: %v", i, br.Err)
		}
	}
	injs[0].SetProfile(faultinject.Profile{CRCError: 1})
	if _, m, err := acc.CompressGzip(src); err != nil || m.Redispatches != 1 {
		t.Fatalf("failover: err %v, redispatches %d", err, m.Redispatches)
	}
	if err := acc.StopTrace(); err != nil {
		t.Fatal(err)
	}
	digested := map[uint64]bool{}
	for _, d := range rec.Digests(0) {
		digested[d.Req] = true
	}
	spans := sink.Spans()
	if len(spans) != 3+len(batch) || len(digested) != 2+len(batch) {
		t.Fatalf("%d spans and %d digests for %d slots", len(spans), len(digested), 3+len(batch))
	}
	kept := rec.RetainedRequests()
	if len(kept) != 1 || len(kept[0].Spans) != 2 {
		t.Fatalf("recorder kept %d requests, want the failover with its 2 spans", len(kept))
	}
	for i, s := range kept[0].Spans {
		if got, want := pinSpan(s), pinSpan(spans[len(spans)-2+i]); got != want {
			t.Errorf("kept span %d:\n%s\nthe sink's:\n%s", i, got, want)
		}
	}
	for _, s := range spans {
		if !digested[s.ReqID] {
			t.Errorf("span of req %d, which the recorder never digested", s.ReqID)
		}
	}
}
