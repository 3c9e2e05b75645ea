package nxzip

// pipeline_test.go holds every entry point to one request lifecycle:
// whatever the driver — single dispatch, batch wave or sticky stream —
// a root request is minted, gated, attempted, failed over, degraded,
// digested and tenant-accounted the same way.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
	"nxzip/internal/lz4"
	"nxzip/internal/telemetry"
	"nxzip/internal/testutil"
)

// tenantLatencyCount sums the observations of a tenant's latency family
// rows (nxzip.tenant.latency_us{t<id>/<class>/<outcome>}) with the given
// outcome suffix ("" = every outcome).
func tenantLatencyCount(snap *telemetry.Snapshot, label, outcome string) int64 {
	var n int64
	for _, h := range snap.Histograms {
		if h.Name == TenantLatencyMetric && strings.HasPrefix(h.Label, label+"/") && strings.HasSuffix(h.Label, outcome) {
			n += h.Count
		}
	}
	return n
}

func admittedTotal(ctrl *admission.Controller) int64 {
	var n int64
	for _, a := range ctrl.StatusNow().Admitted {
		n += a
	}
	return n
}

// TestStreamSegmentsAreRequests: a long-lived stream is not invisible —
// every StreamWriter segment and StreamReader chunk is a root request
// with a RequestID, a digest, a tenant observation and a pass through
// the admission gate; a shed poisons the stream as it does a Writer.
func TestStreamSegmentsAreRequests(t *testing.T) {
	cfg := Z15Node(1)
	cfg.TableMode = TableFixed
	node, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view := node.View()
	defer view.Close()
	rec := node.EnableFlightRecorder("")
	ctrl := node.EnableAdmission(admission.Config{})
	label := TenantLabel(view.TenantID())

	const chunk, segments = 16 << 10, 5
	src := corpus.Generate(corpus.Text, (segments-1)*chunk+chunk/2, 3)
	seq0, adm0 := rec.Seq(), admittedTotal(ctrl)
	lat0 := tenantLatencyCount(node.Metrics(), label, "/ok")

	var gz bytes.Buffer
	w := view.NewStreamWriterChunk(&gz, chunk)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Seq() - seq0; got < segments {
		t.Fatalf("recorder advanced %d over %d stream segments", got, segments)
	}
	plain, err := io.ReadAll(view.NewStreamReader(bytes.NewReader(gz.Bytes()), 0))
	if err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("stream round trip: %v", err)
	}

	ops := map[string]int{}
	for _, d := range rec.Digests(0) {
		if d.Seq <= seq0 {
			continue
		}
		if d.Req == 0 {
			t.Fatalf("digest %q carries no RequestID", d.Op)
		}
		ops[d.Op]++
	}
	if ops["stream-compress"] != segments || ops["stream-decompress"] == 0 {
		t.Fatalf("stream digests by op = %v, want %d stream-compress and >= 1 stream-decompress", ops, segments)
	}
	if got := tenantLatencyCount(node.Metrics(), label, "/ok") - lat0; got <= segments {
		t.Fatalf("tenant latency family grew by %d, want > %d", got, segments)
	}
	if got := admittedTotal(ctrl) - adm0; got <= segments {
		t.Fatalf("gate admitted %d, want > %d", got, segments)
	}

	// A shed segment fails the Write and poisons the stream.
	shedNode, err := OpenNode(P9Node(1))
	if err != nil {
		t.Fatal(err)
	}
	gate := shedNode.EnableAdmission(overloadConfig(1, 20*time.Millisecond))
	slot, _, err := gate.Admit(admission.AdmitRequest{Class: admission.Interactive, Tenant: 999})
	if err != nil {
		t.Fatal(err)
	}
	defer slot.Release()
	bg := shedNode.View()
	defer bg.Close()
	bg.SetPriority(admission.Background)
	sw := bg.NewStreamWriterChunk(io.Discard, chunk)
	if _, err := sw.Write(src[:chunk]); !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("stream segment under overload: err = %v, want ErrOverloaded", err)
	}
	if _, err := sw.Write(src[:1]); !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("write after a shed segment: err = %v, want the stream poisoned", err)
	}
}

// TestParallelWriterStatsSumMembers: ParallelWriter.Stats carries every
// device-cost field of its members. The injectors are seeded, so the
// serial Writer on an identical node absorbs the same paste rejects over
// the same members and its Stats are the per-member sum to compare with.
func TestParallelWriterStatsSumMembers(t *testing.T) {
	src := corpus.Generate(corpus.JSONLogs, 6*32<<10, 4)
	run := func(parallel bool) Metrics {
		cfg := P9Node(1)
		cfg.TableMode = TableFixed
		node, err := OpenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		node.InstallInjectors(11, faultinject.Profile{PasteReject: 0.5})
		acc := node.View()
		defer acc.Close()
		var out bytes.Buffer
		if parallel {
			w := acc.NewParallelWriterChunk(&out, 32<<10, 1)
			if _, err := w.Write(src); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			return w.Stats
		}
		w := acc.NewWriterChunk(&out, 32<<10)
		if _, err := w.Write(src); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return w.Stats
	}
	serial, par := run(false), run(true)
	if serial.PasteRejects == 0 || serial.BackoffWaits == 0 {
		t.Fatalf("profile injected nothing: %+v", serial)
	}
	if par.InBytes != serial.InBytes || par.OutBytes != serial.OutBytes || par.Faults != serial.Faults ||
		par.PasteRejects != serial.PasteRejects || par.BackoffWaits != serial.BackoffWaits {
		t.Fatalf("ParallelWriter.Stats %+v\nserial member sum %+v", par, serial)
	}
	// Backoff sleeps are jittered wall-clock, so these two are compared
	// for presence, not equality.
	if par.BackoffTime <= 0 || par.WastedCycles <= 0 {
		t.Fatalf("ParallelWriter.Stats dropped BackoffTime/WastedCycles: %+v", par)
	}
}

// lifecycleRow is one entry point of the conformance table: run issues
// exactly one root request on a fresh two-device view (device 0 is the
// round-robin policy's first pick, and a sticky stream's pin), checks
// the bytes and reports the request's accounting.
type lifecycleRow struct {
	name, op, codec string
	run             func(t *testing.T, acc *Accelerator) Metrics
}

func lifecycleRows() []lifecycleRow {
	src := corpus.Generate(corpus.JSONLogs, 24<<10, 8)
	gz, err := SoftwareGzip(src, 6)
	if err != nil {
		panic(err)
	}
	lz := lz4.Compress(src)
	dict := []byte(`{"level":"info","msg":"request served","status":200}`)
	gunzips := func(t *testing.T, out []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if plain, err := GunzipMulti(out); err != nil || !bytes.Equal(plain, src) {
			t.Fatalf("output is not src gzipped: %v", err)
		}
	}
	isSrc := func(t *testing.T, out []byte, err error) {
		t.Helper()
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("output is not src: %v", err)
		}
	}
	return []lifecycleRow{
		{"CompressGzip", "compress", "deflate", func(t *testing.T, acc *Accelerator) Metrics {
			out, m, err := acc.CompressGzip(src)
			gunzips(t, out, err)
			return *m
		}},
		{"DecompressGzip", "decompress", "deflate", func(t *testing.T, acc *Accelerator) Metrics {
			out, m, err := acc.DecompressGzip(gz)
			isSrc(t, out, err)
			return *m
		}},
		{"CompressGzipInto", "compress", "deflate", func(t *testing.T, acc *Accelerator) Metrics {
			var m Metrics
			out, err := acc.CompressGzipInto(make([]byte, 0, 64<<10), src, &m)
			gunzips(t, out, err)
			return m
		}},
		{"DecompressGzipInto", "decompress", "deflate", func(t *testing.T, acc *Accelerator) Metrics {
			var m Metrics
			out, err := acc.DecompressGzipInto(make([]byte, 0, 64<<10), gz, &m)
			isSrc(t, out, err)
			return m
		}},
		{"CompressBatch", "batch-compress", "deflate", func(t *testing.T, acc *Accelerator) Metrics {
			r := &BatchRequest{Src: src}
			acc.CompressBatch([]*BatchRequest{r})
			gunzips(t, r.Out, r.Err)
			return r.Metrics
		}},
		{"ParallelWriter", "member-compress", "deflate", func(t *testing.T, acc *Accelerator) Metrics {
			var out bytes.Buffer
			w := acc.NewParallelWriterChunk(&out, 1<<20, 1)
			_, err := w.Write(src)
			if err == nil {
				err = w.Close()
			}
			gunzips(t, out.Bytes(), err)
			return w.Stats
		}},
		{"Reader", "member-decompress", "deflate", func(t *testing.T, acc *Accelerator) Metrics {
			r := acc.NewReader(bytes.NewReader(gz))
			out, err := io.ReadAll(r)
			isSrc(t, out, err)
			return r.Stats
		}},
		{"Compress842", "842-compress", "842", func(t *testing.T, acc *Accelerator) Metrics {
			out, m, err := acc.Compress842(src)
			if err != nil {
				t.Fatal(err)
			}
			back, err := decodeElsewhere(Format842, out)
			isSrc(t, back, err)
			return *m
		}},
		{"DecompressLZ4", "lz4-decompress", "lz4", func(t *testing.T, acc *Accelerator) Metrics {
			out, m, err := acc.DecompressLZ4(lz, 0)
			isSrc(t, out, err)
			return *m
		}},
		{"Transcode", "transcode", "deflate+lz4", func(t *testing.T, acc *Accelerator) Metrics {
			out, m, err := acc.Transcode(FormatGzip, FormatLZ4, gz)
			if err != nil {
				t.Fatal(err)
			}
			back, err := lz4.Decompress(out, len(src))
			isSrc(t, back, err)
			return *m
		}},
		{"CompressZlibDict", "dict-compress", "deflate", func(t *testing.T, acc *Accelerator) Metrics {
			out, m, err := acc.CompressZlibDict(src, dict)
			if err != nil {
				t.Fatal(err)
			}
			back, _, err := acc.DecompressZlibDict(out, dict)
			isSrc(t, back, err)
			return *m
		}},
		{"StreamWriter", "stream-compress", "deflate", func(t *testing.T, acc *Accelerator) Metrics {
			var out bytes.Buffer
			w := acc.NewStreamWriter(&out)
			_, err := w.Write(src)
			if err == nil {
				err = w.Close()
			}
			gunzips(t, out.Bytes(), err)
			return w.Stats
		}},
		{"StreamReader", "stream-decompress", "deflate", func(t *testing.T, acc *Accelerator) Metrics {
			r := acc.NewStreamReader(bytes.NewReader(gz), 0)
			out, err := io.ReadAll(r)
			isSrc(t, out, err)
			return r.Stats
		}},
	}
}

// decodeElsewhere decodes a block format on a separate healthy device,
// for checking the output of the node under test.
func decodeElsewhere(f Format, src []byte) ([]byte, error) {
	acc := Open(P9())
	defer acc.Close()
	out, _, err := acc.DecompressFormat(f, src, 0)
	return out, err
}

// TestLifecycleConformance: every entry point, with device 0 offline
// (one re-dispatch to device 1) and with both devices offline (software
// fallback), leaves the same trail — byte-correct output, exactly one
// digest with its Op/Codec/Attempts/Outcome, the redispatch and fallback
// counters, the failover and fallback events under the request's ID,
// one tenant observation.
func TestLifecycleConformance(t *testing.T) {
	for _, row := range lifecycleRows() {
		for _, allDown := range []bool{false, true} {
			name := row.name + "/failover"
			if allDown {
				name = row.name + "/fallback"
			}
			t.Run(name, func(t *testing.T) {
				node, err := OpenNode(P9Node(2))
				if err != nil {
					t.Fatal(err)
				}
				injs := node.InstallInjectors(1, faultinject.Profile{})
				bus := node.EnableEvents()
				rec := node.EnableFlightRecorder("")
				acc := node.View()
				defer acc.Close()
				label := TenantLabel(acc.TenantID())
				injs[0].SetOffline(true)
				injs[1].SetOffline(allDown)

				m := row.run(t, acc)

				digests := rec.Digests(0)
				if len(digests) != 1 {
					t.Fatalf("%d digests, want exactly 1: %+v", len(digests), digests)
				}
				d := digests[0]
				if d.Req == 0 || d.Op != row.op || d.Codec != row.codec {
					t.Fatalf("digest req=%d op=%q codec=%q, want nonzero/%q/%q", d.Req, d.Op, d.Codec, row.op, row.codec)
				}
				var failovers, fallbacks int
				for _, e := range bus.Tail(256) {
					switch e.Type {
					case telemetry.EventFailover:
						failovers++
					case telemetry.EventFallback:
						fallbacks++
					default:
						continue
					}
					if e.Req != d.Req {
						t.Fatalf("%s event carries req %d, digest %d", e.Type, e.Req, d.Req)
					}
				}
				snap := node.Metrics()
				redispatched := int(snap.Counter("nxzip.redispatches", ""))
				fellBack := int(snap.Counter("nxzip.fallbacks", ""))
				if failovers != redispatched || m.Redispatches != redispatched {
					t.Fatalf("failover events %d, Metrics.Redispatches %d, nxzip.redispatches %d", failovers, m.Redispatches, redispatched)
				}
				if fallbacks != fellBack {
					t.Fatalf("fallback events %d, nxzip.fallbacks %d", fallbacks, fellBack)
				}
				outcome := telemetry.OutcomeOK
				if allDown {
					outcome = telemetry.OutcomeDegraded
					if redispatched < 2 || fellBack != 1 || !m.Degraded || d.Device != "software" || d.Attempts != redispatched {
						t.Fatalf("fallback: redispatches=%d fallbacks=%d degraded=%v device=%q attempts=%d",
							redispatched, fellBack, m.Degraded, d.Device, d.Attempts)
					}
				} else if redispatched != 1 || fellBack != 0 || m.Degraded || d.Device != node.Label(1) || d.Attempts != 2 {
					t.Fatalf("failover: redispatches=%d fallbacks=%d degraded=%v device=%q attempts=%d",
						redispatched, fellBack, m.Degraded, d.Device, d.Attempts)
				}
				if d.Outcome != outcome {
					t.Fatalf("digest outcome %v, want %v", d.Outcome, outcome)
				}
				if got := tenantLatencyCount(snap, label, "/"+outcome.String()); got != 1 {
					t.Fatalf("tenant latency family holds %d %s observations, want 1", got, outcome)
				}
			})
		}
	}
}

// TestOneShotAllocBound extends the alloc gate to the paths that ride
// the pooled request since the dispatch loops collapsed: the copying
// DEFLATE one-shots allocate the exact-size result and the returned
// *Metrics and nothing else; the block codecs no longer mint a CRB, a
// CSB and a Report per request on top of the engine's own output.
func TestOneShotAllocBound(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instruments allocations; gate runs in non-race builds")
	}
	acc := Open(Config{Device: P9().Device, TableMode: TableFixed})
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 8<<10, 3)
	large := corpus.Generate(corpus.Text, 1<<20, 3)
	gz, _, err := acc.CompressGzip(src)
	if err != nil {
		t.Fatal(err)
	}
	// What CompressLZ4/Compress842 allocated per call before they joined
	// the pooled request (measured at that commit with this loop): a CRB,
	// a CSB and a Report per request, failoverOn's closures and Metrics,
	// and the codec's own output buffers.
	const blockParentLZ4, blockParent842 = 9, 68
	for _, tc := range []struct {
		name  string
		bound float64
		op    func() error
	}{
		{"CompressGzip", 2, func() error { _, _, err := acc.CompressGzip(src); return err }},
		{"CompressGzip/1MiB", 2, func() error { _, _, err := acc.CompressGzip(large); return err }},
		{"DecompressGzip", 2, func() error { _, _, err := acc.DecompressGzip(gz); return err }},
		{"CompressLZ4", blockParentLZ4 - 3, func() error { _, _, err := acc.CompressLZ4(src); return err }},
		{"Compress842", blockParent842 - 3, func() error { _, _, err := acc.Compress842(src); return err }},
	} {
		for i := 0; i < 4; i++ { // warm the pools and arena
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		}); n > tc.bound {
			t.Fatalf("%s: %.1f allocs per steady-state op, want <= %.0f", tc.name, n, tc.bound)
		}
	}
}

// codecMixPayloads are bench's codec_mix payloads as its allocation gates
// see them: the first 64 KiB of each of its four classes at seed 1.
func codecMixPayloads() map[corpus.Kind][]byte {
	out := make(map[corpus.Kind][]byte)
	for ki, k := range []corpus.Kind{corpus.Text, corpus.JSONLogs, corpus.Columnar, corpus.Binary} {
		out[k] = corpus.Generate(k, 8<<16, 131+int64(ki))[:64<<10]
	}
	return out
}

// TestBlockDecodeMakesOnlyTheSettleClone: a block-codec DecompressFormat
// decodes into the request's pooled target, so in steady state it
// allocates the copy settle hands back and the returned Metrics — two
// allocations, and bytes for the plaintext and little more.
func TestBlockDecodeMakesOnlyTheSettleClone(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instruments allocations; gate runs in non-race builds")
	}
	acc := Open(Z15())
	defer acc.Close()
	for k, src := range codecMixPayloads() {
		for _, f := range []Format{FormatLZ4, Format842} {
			enc, _, err := acc.CompressFormat(f, src)
			if err != nil {
				t.Fatal(err)
			}
			op := func() {
				if out, m, err := acc.DecompressFormat(f, enc, len(src)); err != nil || len(out) != len(src) || m.Degraded {
					t.Fatalf("%s %s: %d bytes, err %v", f, k, len(out), err)
				}
			}
			for i := 0; i < 4; i++ { // warm the request list and its target
				op()
			}
			if n := testing.AllocsPerRun(20, op); n != 2 {
				t.Errorf("%s %s: %v allocs per decode, want 2 (the clone and the Metrics)", f, k, n)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 20; i++ {
				op()
			}
			runtime.ReadMemStats(&after)
			if per := int((after.TotalAlloc - before.TotalAlloc) / 20); per > len(src)+1024 {
				t.Errorf("%s %s: %d bytes allocated per decode of %d", f, k, per, len(src))
			}
		}
	}
}

// TestSoftwareGunzipAllocBound: SoftwareGunzip sizes its output once from
// the trailer, so a decode of a codec_mix payload allocates at most twice.
func TestSoftwareGunzipAllocBound(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instruments allocations; gate runs in non-race builds")
	}
	for k, src := range codecMixPayloads() {
		var b bytes.Buffer
		w := gzip.NewWriter(&b)
		w.Write(src)
		w.Close()
		gz := b.Bytes()
		if n := testing.AllocsPerRun(20, func() {
			if out, err := SoftwareGunzip(gz); err != nil || len(out) != len(src) {
				t.Fatalf("%s: %d bytes, err %v", k, len(out), err)
			}
		}); n > 2 {
			t.Errorf("%s: %v allocs per SoftwareGunzip, want <= 2", k, n)
		}
	}
}

// TestCodecLabelIsTheNeedSetsNameAndAllocFree: the label a digest carries
// is the required codec set's name for every operation kind and format
// pair, and asking for it allocates nothing — a transcode's included.
func TestCodecLabelIsTheNeedSetsNameAndAllocFree(t *testing.T) {
	formats := []Format{FormatGzip, FormatZlib, FormatRaw, Format842, FormatLZ4}
	for _, from := range formats {
		for _, to := range formats {
			for _, o := range []op{{kind: opCompress, format: from}, {kind: opTranscode, format: from, to: to}} {
				if got, want := o.codecLabel(), o.need().String(); got != want {
					t.Fatalf("kind %v %v->%v: label %q, need set %q", o.kind, from, to, got, want)
				}
				if n := testing.AllocsPerRun(10, func() { _ = o.codecLabel() }); n != 0 {
					t.Fatalf("kind %v %v->%v: codecLabel allocates %v times", o.kind, from, to, n)
				}
			}
		}
	}
}
