package nxzip

// codec_chaos_test.go exercises the codec-plural dispatch layer on
// mixed-capability nodes: LZ4 requests must land only on LZ4-capable
// devices, stay byte-exact while chaos kills and revives devices, and
// degrade to the matching software codec — never to a wrong-format
// result — when no capable device exists or survives.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/faultinject"
	"nxzip/internal/lz4"
	"nxzip/internal/nx"
)

// mixedNode builds a two-device node where device 0 serves only DEFLATE
// and device 1 serves every codec.
func mixedNode(t *testing.T, dispatch string) *Node {
	t.Helper()
	d0 := nx.P9Device()
	d0.Engine.Codecs = nx.Codecs(nx.CodecDeflate)
	d1 := nx.P9Device()
	d1.Engine.Codecs = nx.Codecs(nx.CodecDeflate, nx.Codec842, nx.CodecLZ4)
	cfg := CustomNode("mixed", d0, d1)
	cfg.Dispatch = dispatch
	node, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// codecRequests reads the per-codec request counter of device i.
func codecRequests(node *Node, i int, codec nx.Codec) int64 {
	return node.Device(i).Registry().Snapshot().Counter("nx.codec.requests", codec.String())
}

// TestMixedCapabilityRouting: on a mixed node LZ4 traffic routes only to
// the LZ4-capable device while DEFLATE traffic still spreads over both,
// and every round trip is byte-exact without degradation.
func TestMixedCapabilityRouting(t *testing.T) {
	node := mixedNode(t, "")
	acc := node.View()
	t.Cleanup(acc.Close)
	src := corpus.Generate(corpus.Text, 48<<10, 11)

	for i := 0; i < 8; i++ {
		blk, m, err := acc.CompressLZ4(src)
		if err != nil {
			t.Fatalf("CompressLZ4: %v", err)
		}
		if m.Degraded {
			t.Fatal("LZ4 compress degraded on a node with a capable device")
		}
		plain, m2, err := acc.DecompressLZ4(blk, len(src)+16)
		if err != nil || !bytes.Equal(plain, src) {
			t.Fatalf("LZ4 round trip %d: err=%v equal=%v", i, err, bytes.Equal(plain, src))
		}
		if m2.Degraded {
			t.Fatal("LZ4 decompress degraded on a node with a capable device")
		}
		if _, _, err := acc.CompressGzip(src); err != nil {
			t.Fatalf("gzip compress: %v", err)
		}
	}

	if got := codecRequests(node, 0, nx.CodecLZ4); got != 0 {
		t.Fatalf("deflate-only device served %d LZ4 requests, want 0", got)
	}
	if got := codecRequests(node, 1, nx.CodecLZ4); got < 16 {
		t.Fatalf("capable device served %d LZ4 requests, want >= 16", got)
	}
	if got := codecRequests(node, 0, nx.CodecDeflate); got == 0 {
		t.Fatal("deflate-only device served no DEFLATE requests")
	}
}

// TestMixedCapabilityChaos: killing the only LZ4-capable device degrades
// LZ4 requests to software (still byte-exact, flagged, counted in the
// per-codec fallback vec) while DEFLATE continues on hardware; reviving
// the device brings LZ4 back to the device path.
func TestMixedCapabilityChaos(t *testing.T) {
	node := mixedNode(t, "")
	injs := node.InstallInjectors(3, faultinject.Profile{})
	acc := node.View()
	t.Cleanup(acc.Close)
	src := corpus.Generate(corpus.JSONLogs, 32<<10, 12)

	// Healthy baseline.
	blk, m, err := acc.CompressLZ4(src)
	if err != nil || m.Degraded {
		t.Fatalf("baseline LZ4: err=%v degraded=%v", err, m != nil && m.Degraded)
	}

	// Kill the capable device: LZ4 must fall back to software and stay
	// byte-exact; the block must interoperate with the pure-Go codec.
	injs[1].SetOffline(true)
	blk2, m2, err := acc.CompressLZ4(src)
	if err != nil {
		t.Fatalf("LZ4 with capable device dead: %v", err)
	}
	if !m2.Degraded {
		t.Fatal("LZ4 compress with no capable device not flagged Degraded")
	}
	plain, err := lz4.Decompress(blk2, len(src)+16)
	if err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("software LZ4 block does not interoperate: err=%v", err)
	}
	// DEFLATE is unaffected: the deflate-only device still serves it.
	if _, mgz, gerr := acc.CompressGzip(src); gerr != nil || mgz.Degraded {
		t.Fatalf("gzip with LZ4 device dead: err=%v degraded=%v", gerr, mgz != nil && mgz.Degraded)
	}
	snap := node.Metrics()
	if got := snap.Counter("nxzip.codec.fallbacks", "lz4"); got < 1 {
		t.Fatalf("nxzip.codec.fallbacks{lz4} = %d, want >= 1", got)
	}

	// Revive and wait for readmission, then LZ4 serves from hardware again.
	injs[1].SetOffline(false)
	waitHealthy(t, node)
	plain3, m3, err := acc.DecompressLZ4(blk, len(src)+16)
	if err != nil || !bytes.Equal(plain3, src) {
		t.Fatalf("revived LZ4 decode: %v", err)
	}
	if m3.Degraded {
		t.Fatal("LZ4 request after revive still degraded")
	}
	if got := codecRequests(node, 0, nx.CodecLZ4); got != 0 {
		t.Fatalf("deflate-only device served %d LZ4 requests under chaos, want 0", got)
	}
}

// TestNoCapableDeviceFallsBack: a node whose hardware serves only
// DEFLATE answers LZ4 and 842 requests from the software codecs —
// degraded, correct, and without burning dispatch attempts.
func TestNoCapableDeviceFallsBack(t *testing.T) {
	d := nx.P9Device()
	d.Engine.Codecs = nx.Codecs(nx.CodecDeflate)
	node, err := OpenNode(CustomNode("deflate-only", d, d))
	if err != nil {
		t.Fatal(err)
	}
	acc := node.View()
	t.Cleanup(acc.Close)
	src := corpus.Generate(corpus.Binary, 16<<10, 13)

	blk, m, err := acc.CompressLZ4(src)
	if err != nil {
		t.Fatalf("CompressLZ4 on deflate-only node: %v", err)
	}
	if !m.Degraded {
		t.Fatal("no-capable-device result not flagged Degraded")
	}
	if m.Redispatches != 0 {
		t.Fatalf("no-capable-device path burned %d dispatch attempts, want 0", m.Redispatches)
	}
	plain, m2, err := acc.DecompressLZ4(blk, len(src)+16)
	if err != nil || !bytes.Equal(plain, src) || !m2.Degraded {
		t.Fatalf("degraded LZ4 round trip: err=%v equal=%v degraded=%v",
			err, bytes.Equal(plain, src), m2 != nil && m2.Degraded)
	}
	if _, m3, err := acc.Compress842(src); err != nil || !m3.Degraded {
		t.Fatalf("842 on deflate-only node: err=%v", err)
	}
	for i := 0; i < 2; i++ {
		if got := codecRequests(node, i, nx.CodecLZ4); got != 0 {
			t.Fatalf("device %d served %d LZ4 requests, want 0", i, got)
		}
	}
}

// TestTranscodeRoundTrip: LZ4 → gzip transcode on a capable device
// produces stdlib-accepted gzip of the original plaintext in one node
// round trip; gzip → lz4 inverts it; same-codec pairs are rejected.
func TestTranscodeRoundTrip(t *testing.T) {
	node := mixedNode(t, "")
	acc := node.View()
	t.Cleanup(acc.Close)
	src := corpus.Generate(corpus.Text, 64<<10, 14)

	blk, _, err := acc.CompressLZ4(src)
	if err != nil {
		t.Fatal(err)
	}
	gz, m, err := acc.Transcode(FormatLZ4, FormatGzip, blk)
	if err != nil {
		t.Fatalf("Transcode lz4→gzip: %v", err)
	}
	if m.Degraded {
		t.Fatal("transcode degraded on a node with a dual-capable device")
	}
	plain, err := SoftwareGunzip(gz)
	if err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("transcoded gzip does not round-trip: err=%v equal=%v", err, bytes.Equal(plain, src))
	}

	back, _, err := acc.Transcode(FormatGzip, FormatLZ4, gz)
	if err != nil {
		t.Fatalf("Transcode gzip→lz4: %v", err)
	}
	plain2, err := lz4.Decompress(back, len(src)+16)
	if err != nil || !bytes.Equal(plain2, src) {
		t.Fatalf("transcoded lz4 does not round-trip: err=%v", err)
	}

	if _, _, err := acc.Transcode(FormatGzip, FormatZlib, gz); err == nil {
		t.Fatal("same-codec transcode (gzip→zlib) accepted, want error")
	}
}

// TestTranscodeDegradesToSoftware: with the only dual-capable device
// dead, transcode still converts correctly through the two software
// codecs and flags the result.
func TestTranscodeDegradesToSoftware(t *testing.T) {
	node := mixedNode(t, "")
	injs := node.InstallInjectors(5, faultinject.Profile{})
	acc := node.View()
	t.Cleanup(acc.Close)
	src := corpus.Generate(corpus.HTML, 32<<10, 15)

	blk := lz4.Compress(src)
	injs[1].SetOffline(true)
	gz, m, err := acc.Transcode(FormatLZ4, FormatGzip, blk)
	if err != nil {
		t.Fatalf("degraded transcode: %v", err)
	}
	if !m.Degraded {
		t.Fatal("software transcode not flagged Degraded")
	}
	plain, err := SoftwareGunzip(gz)
	if err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("degraded transcode output wrong: err=%v", err)
	}
}

// TestNodeFormatAPI: the node-level format-routed entry points work
// without an explicitly opened view and share one default view.
func TestNodeFormatAPI(t *testing.T) {
	node := mixedNode(t, "")
	src := corpus.Generate(corpus.Text, 24<<10, 16)
	// A sound stream over its budget is the device's target-space answer in
	// every format — not corruption, which would send it round the other
	// devices and through the software decoder first — and, with no device
	// to run it, the software path's.
	oneByteShort := func(f Format, enc []byte, path string) {
		t.Helper()
		_, _, err := node.DecompressFormat(f, enc, len(src)-1)
		if !errors.Is(err, nx.ErrTargetSpace) || !strings.Contains(err.Error(), "exceeds") || strings.Contains(err.Error(), "corrupt") ||
			!strings.Contains(err.Error(), oneShotNames[f.Codec()][1]+":") {
			t.Fatalf("DecompressFormat(%s) one byte short on the %s path: %v", f, path, err)
		}
	}

	encoded := make(map[Format][]byte)
	for _, f := range []Format{FormatGzip, FormatZlib, FormatRaw, Format842, FormatLZ4} {
		enc, m, err := node.CompressFormat(f, src)
		if err != nil {
			t.Fatalf("CompressFormat(%s): %v", f, err)
		}
		if m.Degraded {
			t.Fatalf("CompressFormat(%s) degraded on healthy mixed node", f)
		}
		plain, _, err := node.DecompressFormat(f, enc, len(src)+64)
		if err != nil || !bytes.Equal(plain, src) {
			t.Fatalf("DecompressFormat(%s): err=%v equal=%v", f, err, bytes.Equal(plain, src))
		}
		oneByteShort(f, enc, "device")
		encoded[f] = enc
	}

	gz, _, err := node.Transcode(Format842, FormatGzip, must842(t, node, src))
	if err != nil {
		t.Fatalf("node Transcode: %v", err)
	}
	plain, err := SoftwareGunzip(gz)
	if err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("node transcode output wrong: err=%v", err)
	}
	if node.CapableDevices(nx.Codecs(nx.CodecLZ4)) != 1 {
		t.Fatalf("CapableDevices(lz4) = %d, want 1", node.CapableDevices(nx.Codecs(nx.CodecLZ4)))
	}

	for _, inj := range node.InstallInjectors(16, faultinject.Profile{}) {
		inj.SetOffline(true)
	}
	for f, enc := range encoded {
		oneByteShort(f, enc, "software")
	}
}

func must842(t *testing.T, node *Node, src []byte) []byte {
	t.Helper()
	enc, _, err := node.CompressFormat(Format842, src)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}
