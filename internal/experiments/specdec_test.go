package experiments

// specdec_test.go covers the speculative-decode analysis behind A6.

import (
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/deflate"
	"nxzip/internal/lz77"
)

// blockFor compresses a corpus class into a single dynamic-table block.
func blockFor(tb testing.TB, k corpus.Kind, size int) []byte {
	tb.Helper()
	src := corpus.Generate(k, size, 7)
	m := lz77.NewHWMatcher(lz77.P9HWParams())
	toks, _ := m.Tokenize(nil, src)
	out, err := deflate.EncodeTokens(toks, src, deflate.ModeDynamic, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func TestAnalyzeTextSelfSynchronizes(t *testing.T) {
	an, err := analyzeSync(blockFor(t, corpus.Text, 64<<10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if an.Trials < 1000 {
		t.Fatalf("only %d trials", an.Trials)
	}
	// Huffman self-synchronization is strong on skewed codes: the vast
	// majority of blind starts re-align.
	if an.SyncRate < 0.8 {
		t.Fatalf("sync rate %.2f too low", an.SyncRate)
	}
	if an.MeanSyncBits <= 0 || an.MeanSyncBits > 400 {
		t.Fatalf("mean sync %.1f bits implausible", an.MeanSyncBits)
	}
	t.Logf("text: sync %.1f%%, mean %.1f bits", an.SyncRate*100, an.MeanSyncBits)
}

func TestAnalyzeAcrossCorpora(t *testing.T) {
	for _, k := range []corpus.Kind{corpus.JSONLogs, corpus.DNA, corpus.Binary} {
		an, err := analyzeSync(blockFor(t, k, 32<<10), 0)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if an.SyncRate < 0.5 {
			t.Fatalf("%s: sync rate %.2f", k, an.SyncRate)
		}
		t.Logf("%-8s sync %.1f%% mean %.1f bits", k, an.SyncRate*100, an.MeanSyncBits)
	}
}

func TestAnalyzeFixedTableBlock(t *testing.T) {
	src := corpus.Generate(corpus.Source, 32<<10, 3)
	m := lz77.NewHWMatcher(lz77.P9HWParams())
	toks, _ := m.Tokenize(nil, src)
	out, err := deflate.EncodeTokens(toks, src, deflate.ModeFixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := analyzeSync(out, 0)
	if err != nil {
		t.Fatal(err)
	}
	if an.SyncRate <= 0 {
		t.Fatal("no synchronization on fixed-table block")
	}
}

func TestAnalyzeRejectsStored(t *testing.T) {
	src := make([]byte, 1000)
	out, err := deflate.EncodeTokens(nil, src, deflate.ModeStored, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analyzeSync(out, 0); err == nil {
		t.Fatal("stored block accepted")
	}
}

func TestSpeedupModel(t *testing.T) {
	an, err := analyzeSync(blockFor(t, corpus.Text, 64<<10), 0)
	if err != nil {
		t.Fatal(err)
	}
	// One lane = 1.0 by definition.
	if s := an.Speedup(1, 4096); s != 1 {
		t.Fatalf("1-lane speedup %v", s)
	}
	// More lanes help, with diminishing returns per lane.
	s2 := an.Speedup(2, 4096)
	s8 := an.Speedup(8, 4096)
	if s2 <= 1 || s8 <= s2 {
		t.Fatalf("speedups not increasing: %v %v", s2, s8)
	}
	if s8 > 8 {
		t.Fatalf("8-lane speedup %v exceeds lane count", s8)
	}
	// Bigger segments amortize the sync prefix better.
	if an.Speedup(8, 8192) <= an.Speedup(8, 1024) {
		t.Fatal("segment-size scaling inverted")
	}
}

func TestSpeedupDegenerate(t *testing.T) {
	a := &syncAnalysis{}
	if a.Speedup(4, 1000) != 1 {
		t.Fatal("no-trials speedup must be 1")
	}
}
