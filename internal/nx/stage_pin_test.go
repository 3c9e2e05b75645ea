package nx

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"nxzip/internal/telemetry"
)

// TestStageLabelsPinned pins the engine's stage vocabulary as the
// observing surfaces print it: the nx.engine.stage_cycles labels of a
// device snapshot, in order, and the pipeline stages a traced compress
// and decompress record into their spans. Dashboards and postmortem
// readers key on these strings.
func TestStageLabelsPinned(t *testing.T) {
	cfg := P9Device()
	dev := NewDevice(cfg)
	sink := telemetry.NewCollectSink()
	dev.InstallTracer(telemetry.NewTracer(sink))
	ctx := dev.OpenContext(1)
	defer ctx.Close()
	src := bytes.Repeat([]byte("stage labels stage labels "), 64)
	out, _, err := ctx.Compress(src, FCCompressDHT, WrapGzip, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctx.Decompress(out, WrapGzip, len(src), true); err != nil {
		t.Fatal(err)
	}

	var labels []string
	for _, c := range dev.MetricsSnapshot().Counters {
		if c.Name == "nx.engine.stage_cycles" && strings.HasPrefix(c.Label, "0/") {
			labels = append(labels, c.Label)
		}
	}
	wantLabels := []string{
		"0/complete", "0/decode", "0/dht-gen", "0/dma-in", "0/dma-out",
		"0/encode", "0/lz", "0/setup", "0/translate",
	}
	if !reflect.DeepEqual(labels, wantLabels) {
		t.Fatalf("stage_cycles labels of engine 0:\n got %q\nwant %q", labels, wantLabels)
	}

	spans := sink.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	want := [][]string{
		{"submit", "fifo", "setup", "translate", "dht-gen", "dma-in", "lz", "encode", "dma-out", "complete"},
		{"submit", "fifo", "setup", "translate", "dma-in", "decode", "dma-out", "complete"},
	}
	for i, sp := range spans {
		var got []string
		for _, r := range sp.Stages {
			got = append(got, r.Stage.String())
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("span %d (%s) stages:\n got %q\nwant %q", i, sp.Op, got, want[i])
		}
	}
}
