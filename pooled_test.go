package nxzip

import (
	"bytes"
	"runtime"
	"testing"

	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
	"nxzip/internal/testutil"
)

// TestCompressGzipIntoRoundtrip covers the caller-owned-buffer contract:
// append semantics into dst[:0], aliasing when dst is big enough, growth
// when it is not, and a byte-exact roundtrip through both Into paths.
func TestCompressGzipIntoRoundtrip(t *testing.T) {
	acc := Open(Config{Device: P9().Device, TableMode: TableFixed})
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 32<<10, 1)

	// Adequately sized dst: the frame must land in dst's backing.
	dst := make([]byte, 0, 64<<10)
	var m Metrics
	gz, err := acc.CompressGzipInto(dst, src, &m)
	if err != nil {
		t.Fatal(err)
	}
	if len(gz) == 0 || &gz[0] != &dst[:1][0] {
		t.Fatal("result does not alias the caller's dst despite sufficient capacity")
	}
	if m.OutBytes != len(gz) || m.InBytes != len(src) {
		t.Fatalf("metrics in=%d out=%d, want %d/%d", m.InBytes, m.OutBytes, len(src), len(gz))
	}
	if m.DeviceCycles <= 0 || m.Degraded {
		t.Fatalf("device accounting missing: cycles=%d degraded=%v", m.DeviceCycles, m.Degraded)
	}
	plain, err := SoftwareGunzip(gz)
	if err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("software gunzip of Into output: %v", err)
	}

	// Undersized dst: append semantics grow the backing transparently.
	small := make([]byte, 0, 16)
	gz2, err := acc.CompressGzipInto(small, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gz2, gz) {
		t.Fatal("grown-dst frame differs from aliased-dst frame")
	}

	// Nil dst is valid: plain append semantics from scratch.
	gz3, err := acc.CompressGzipInto(nil, src, nil)
	if err != nil || !bytes.Equal(gz3, gz) {
		t.Fatalf("nil-dst compress: %v", err)
	}

	// Decompress back through the Into path.
	pdst := make([]byte, 0, len(src)+1024)
	var dm Metrics
	back, err := acc.DecompressGzipInto(pdst, gz, &dm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("DecompressGzipInto roundtrip mismatch")
	}
	if len(back) > 0 && &back[0] != &pdst[:1][0] {
		t.Fatal("decompress result does not alias the caller's dst")
	}
	if dm.OutBytes != len(src) {
		t.Fatalf("decompress metrics out=%d, want %d", dm.OutBytes, len(src))
	}
}

// TestDecompressIntoStaysInsideItsWindow pins the dst scratch rule: the
// decoder may overwrite up to 7 bytes past the returned length, and nothing
// outside a three-index window of a shared buffer.
func TestDecompressIntoStaysInsideItsWindow(t *testing.T) {
	acc := Open(Config{Device: P9().Device})
	defer acc.Close()
	for _, kind := range []corpus.Kind{corpus.Text, corpus.JSONLogs, corpus.Zeros} {
		src := corpus.Generate(kind, 24<<10, 5)
		gz, _, err := acc.CompressGzip(src)
		if err != nil {
			t.Fatal(err)
		}
		const off, room = 512, 4096
		big := bytes.Repeat([]byte{0xA5}, off+len(src)+room+512)
		end := off + len(src) + room
		back, err := acc.DecompressGzipInto(big[off:off:end], gz, nil)
		if err != nil || !bytes.Equal(back, src) || &back[0] != &big[off] {
			t.Fatalf("%v: err %v, %d bytes, in place %v", kind, err, len(back), &back[0] == &big[off])
		}
		for i, b := range big {
			if (i < off || i >= off+len(src)+7) && b != 0xA5 {
				t.Fatalf("%v: byte %d overwritten (window %d..%d, output ends at %d)", kind, i, off, end, off+len(src))
			}
		}
	}
}

func TestCompressZlibIntoRoundtrip(t *testing.T) {
	acc := Open(Config{Device: P9().Device, TableMode: TableFixed})
	defer acc.Close()
	src := corpus.Generate(corpus.JSONLogs, 16<<10, 2)
	z, err := acc.CompressZlibInto(make([]byte, 0, 32<<10), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := acc.DecompressZlibInto(make([]byte, 0, len(src)+64), z, nil)
	if err != nil || !bytes.Equal(back, src) {
		t.Fatalf("zlib Into roundtrip: %v", err)
	}
}

// TestIntoPathAllocFree is the tentpole's acceptance gate: once warm,
// the pooled one-shot path performs ZERO heap allocations per request,
// compress and decompress both. TableFixed avoids the per-request DHT
// sample (which allocates by design, like the silicon building its
// tables on-chip).
func TestIntoPathAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instruments allocations; gate runs in non-race builds")
	}
	// TableDynamic is the engine-generated DHT: counting, the Huffman
	// build, the header plan and the codes all live in the engine's
	// encoder scratch, so it is held to the same zero as the fixed table.
	for _, tc := range []struct {
		name string
		mode TableMode
	}{{"TableFixed", TableFixed}, {"TableDynamic", TableDynamic}} {
		t.Run(tc.name, func(t *testing.T) {
			acc := Open(Config{Device: P9().Device, TableMode: tc.mode})
			defer acc.Close()
			intoPathAllocFree(t, acc)
		})
	}
	// Gated is small_into's configuration: a z15 node with the flight
	// recorder and the admission gate on. The gate's ticket is a value the
	// request holds, so admitting a request allocates nothing either.
	t.Run("Gated", func(t *testing.T) {
		cfg := Z15Node(1)
		cfg.TableMode = TableFixed
		node, err := OpenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		node.EnableFlightRecorder("")
		node.EnableAdmission(admission.Config{})
		acc := node.View()
		defer acc.Close()
		intoPathAllocFree(t, acc)
	})
}

func intoPathAllocFree(t *testing.T, acc *Accelerator) {
	src := corpus.Generate(corpus.Text, 8<<10, 3)
	dst := make([]byte, 0, 16<<10)
	var m Metrics
	var err error
	// Warm the pools: first calls mint the pooled blocks, arena spans and
	// engine scratch that the steady state then reuses.
	for i := 0; i < 4; i++ {
		dst, err = acc.CompressGzipInto(dst[:0], src, &m)
		if err != nil {
			t.Fatal(err)
		}
	}
	gz := append([]byte(nil), dst...)
	if n := testing.AllocsPerRun(200, func() {
		dst, err = acc.CompressGzipInto(dst[:0], src, &m)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CompressGzipInto: %.1f allocs per steady-state op, want 0", n)
	}

	pdst := make([]byte, 0, 16<<10)
	for i := 0; i < 4; i++ {
		pdst, err = acc.DecompressGzipInto(pdst[:0], gz, &m)
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		pdst, err = acc.DecompressGzipInto(pdst[:0], gz, &m)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecompressGzipInto: %.1f allocs per steady-state op, want 0", n)
	}
	if !bytes.Equal(pdst, src) {
		t.Fatal("roundtrip mismatch after alloc gate")
	}
}

// TestIntoPathAllocFreeAcrossCollections holds the same zero with two
// collections before every pair of requests: the request block, the
// submission envelope and the inflater come from free lists a collection
// does not empty, so what a request allocates does not follow how often
// the process collects. (From sync.Pools each pair allocated all three
// again, with their scratch.)
func TestIntoPathAllocFreeAcrossCollections(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instruments allocations; gate runs in non-race builds")
	}
	acc := Open(Config{Device: P9().Device, TableMode: TableDynamic})
	defer acc.Close()
	src := corpus.Generate(corpus.Text, 8<<10, 3)
	gz, plain := make([]byte, 0, 16<<10), make([]byte, 0, 16<<10)
	var m Metrics
	pair := func() {
		var err error
		if gz, err = acc.CompressGzipInto(gz[:0], src, &m); err != nil {
			t.Fatal(err)
		}
		if plain, err = acc.DecompressGzipInto(plain[:0], gz, &m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		pair()
	}
	collect := func() { runtime.GC(); runtime.GC() }
	// What two collections allocate on their own is the runtime's.
	base := testing.AllocsPerRun(20, collect)
	if n := testing.AllocsPerRun(20, func() { collect(); pair() }); n > base {
		t.Fatalf("a compress and a decompress after two collections: %.1f allocs, the collections alone %.1f", n, base)
	}
	if !bytes.Equal(plain, src) {
		t.Fatal("roundtrip mismatch after alloc gate")
	}
}

// TestDecompressFollowerAllocFree is TestIntoPathAllocFree's zero for a
// 1 MiB DecompressGzipInto at two Ps, where one request leaves a P idle
// and the engine's checksum follower sums the output on it, its goroutine
// started on a method value stored in the follower. testing.AllocsPerRun
// runs at one P, where the follower stays inline, so the count is the
// process's, the least of a few windows (testutil.WindowMallocs).
func TestDecompressFollowerAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instruments allocations; gate runs in non-race builds")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	acc := Open(Config{Device: P9().Device, TableMode: TableFixed})
	defer acc.Close()
	base := runtime.NumGoroutine()
	src := corpus.Generate(corpus.Text, 1<<20, 3)
	var m Metrics
	gz, err := acc.CompressGzipInto(nil, src, &m)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 0, len(src))
	op := func() {
		if plain, err = acc.DecompressGzipInto(plain[:0], gz, &m); err != nil {
			t.Fatal(err)
		}
	}
	testutil.SpareGoroutineDescriptors()
	for i := 0; i < 4; i++ { // warm the pools and the follower
		op()
	}
	if !bytes.Equal(plain, src) {
		t.Fatal("roundtrip mismatch")
	}
	testutil.GoroutinesBack(t, base, "before counting")
	const windows, runs = 5, 10
	if counts := testutil.WindowMallocs(op, windows, runs); counts != nil {
		t.Fatalf("allocations in each of %d windows of %d decompresses: %v, want a window of 0", windows, runs, counts)
	}
}

// TestRequestFreeDropsHugeScratch: the list keeps a request for the life
// of the process, so a scratch past maxPooledScratch does not ride back
// with it, and one under it does.
func TestRequestFreeDropsHugeScratch(t *testing.T) {
	for _, tc := range []struct {
		size int
		kept bool
	}{{maxPooledScratch, true}, {maxPooledScratch + 1, false}} {
		r := requestPool.Get()
		r.buf = make([]byte, 0, tc.size)
		r.free()
		again := requestPool.Get() // newest first: the same block
		if again != r {
			t.Fatal("the list did not hand back the request just freed")
		}
		if kept := cap(again.buf) == tc.size; kept != tc.kept {
			t.Errorf("scratch of %d bytes: kept %v, want %v", tc.size, kept, tc.kept)
		}
		again.buf = nil
		again.free()
	}
}

// TestOneShotMappingsStable is the VA-arena regression: repeated
// one-shots must not mint fresh mappings — the mapped page count of the
// context settles after warmup and stays put. (Before the arena, every
// CompressGzip/DecompressGzip call mapped two more buffers forever.)
func TestOneShotMappingsStable(t *testing.T) {
	acc := Open(Config{Device: P9().Device, TableMode: TableFixed})
	defer acc.Close()
	src := corpus.Generate(corpus.Source, 24<<10, 4)
	gz, _, err := acc.CompressGzip(src)
	if err != nil {
		t.Fatal(err)
	}
	warm := func() {
		if _, _, err := acc.CompressGzip(src); err != nil {
			t.Fatal(err)
		}
		if _, _, err := acc.DecompressGzip(gz); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		warm()
	}
	pages := acc.MMU().MappedPages(acc.Context().PID())
	for i := 0; i < 50; i++ {
		warm()
	}
	if got := acc.MMU().MappedPages(acc.Context().PID()); got != pages {
		t.Fatalf("mappings grew under repeated one-shots: %d -> %d pages", pages, got)
	}
}

// TestMemberGrowLoopMappingsBounded pins the member-decode leak fix: the
// CCTargetSpace grow loop recycles each outgrown destination span, so
// repeated multi-member decodes (with growth) hold the mapped page count
// flat instead of leaking every intermediate buffer.
func TestMemberGrowLoopMappingsBounded(t *testing.T) {
	acc := Open(Config{Device: P9().Device, TableMode: TableFixed})
	defer acc.Close()
	// Plaintext larger than memberCapInitial so the grow loop actually
	// runs (4 MiB initial target, 6 MiB member).
	src := corpus.Generate(corpus.Text, 6<<20, 5)
	gz, _, err := acc.CompressGzip(src)
	if err != nil {
		t.Fatal(err)
	}
	budget := len(src) + 1024
	decode := func() {
		var m Metrics
		plain, consumed, err := acc.decompressMember(acc.nctx, nil, gz, budget, &m)
		if err != nil {
			t.Fatal(err)
		}
		if consumed != len(gz) || !bytes.Equal(plain, src) {
			t.Fatalf("member decode: consumed=%d/%d equal=%v", consumed, len(gz), bytes.Equal(plain, src))
		}
	}
	decode() // warm: populate the arena's size classes
	pages := acc.MMU().MappedPages(acc.Context().PID())
	for i := 0; i < 8; i++ {
		decode()
	}
	if got := acc.MMU().MappedPages(acc.Context().PID()); got != pages {
		t.Fatalf("grow-loop decode leaks mappings: %d -> %d pages", pages, got)
	}
}

// TestPooledFallbackIntoDegraded: the Into path's software fallback
// still honours the caller-owned-buffer contract and flags Degraded.
func TestPooledFallbackIntoDegraded(t *testing.T) {
	_, acc, injs := openChaosNode(t, P9Node(1), faultinject.Profile{})
	injs[0].SetOffline(true)
	src := corpus.Generate(corpus.Text, 8<<10, 6)
	dst := make([]byte, 0, 16<<10)
	var m Metrics
	gz, err := acc.CompressGzipInto(dst, src, &m)
	if err != nil {
		t.Fatalf("Into with dead pool: %v", err)
	}
	if !m.Degraded {
		t.Fatal("software-path Into result not flagged Degraded")
	}
	if len(gz) == 0 || &gz[0] != &dst[:1][0] {
		t.Fatal("fallback result does not reuse the caller's dst")
	}
	back, err := acc.DecompressGzipInto(make([]byte, 0, len(src)+64), gz, &m)
	if err != nil || !bytes.Equal(back, src) || !m.Degraded {
		t.Fatalf("degraded Into roundtrip: err=%v degraded=%v", err, m.Degraded)
	}
}
