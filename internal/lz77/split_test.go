package lz77

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"nxzip/internal/corpus"
	"nxzip/internal/testutil"
)

// splitRun runs a split operation over history+src at seam on one
// goroutine — the tail, then the head — so the scheduler plays no part.
// met is how far past the seam the head met the tail, -1 where it ran on
// alone.
func splitRun(head, tail *HWMatcher, history, src []byte, seam int) ([]Token, HWStats, int) {
	buf := make([]Token, 0, len(src)+SeamSpan)
	tail.TokenizeTail(buf, src, seam)
	return head.TokenizeHead(buf, history, src, seam, tail, func() {})
}

// firstSeam is the nearest seam to a source's start the rules allow: the
// first multiple of InputWidth at least MaxDist in.
func firstSeam(p HWParams) int {
	return (p.MaxDist + p.InputWidth - 1) / p.InputWidth * p.InputWidth
}

// seams are where TestSplitEqualsSerial splits a source of n bytes: as near
// as the rules allow to MaxDist, to n/2 and to n - MaxMatch.
func seams(p HWParams, n int) []int {
	first := firstSeam(p)
	var out []int
	for _, s := range []int{first, n / 2, n - MaxMatch} {
		if s -= s % p.InputWidth; s >= first && s <= n {
			out = append(out, s)
		}
	}
	return out
}

// splitGeometries are the shipped ones, A4's narrowest window, A5's
// narrowest and widest ingest and a width no power of two.
func splitGeometries() []HWParams {
	ps := []HWParams{P9HWParams(), Z15HWParams()}
	for _, f := range []func(*HWParams){
		func(p *HWParams) { p.MaxDist = 1 << 10 },
		func(p *HWParams) { p.InputWidth = 4 },
		func(p *HWParams) { p.InputWidth = 32 },
		func(p *HWParams) { p.InputWidth = 12 },
	} {
		p := P9HWParams()
		f(&p)
		ps = append(ps, p)
	}
	return ps
}

// straddle is random bytes in which the 258 at seam-129+off repeat bytes
// 700 back: the serial parse takes them as one match across the seam, and
// the tail starts inside it.
func straddle(n, seam, off int) []byte {
	src := make([]byte, n)
	rand.New(rand.NewSource(int64(off))).Read(src)
	at := seam - MaxMatch/2 + off
	copy(src[at:at+MaxMatch], src[at-700:])
	return src
}

// checkSplit holds one split operation to Tokenize (TokenizeWithHistory)
// and to the reference: equal tokens, equal HWStats.
func checkSplit(t *testing.T, p HWParams, want []Token, wst HWStats, history, src []byte, seam int) int {
	t.Helper()
	got, gst, met := splitRun(NewHWMatcher(p), NewHWMatcher(p), history, src, seam)
	if gst != wst {
		t.Fatalf("stats differ:\n got  %+v\n want %+v", gst, wst)
	}
	if err := diffTokens(got, want); err != nil {
		t.Fatal(err)
	}
	return met
}

// TestSplitEqualsSerial: a split operation returns Tokenize's tokens and
// HWStats — and the reference's — for every corpus kind, zeros and three
// periods, and a match across the seam at every beat offset, under six
// geometries, at three seams, with and without history.
func TestSplitEqualsSerial(t *testing.T) {
	n := 128 << 10
	if testutil.RaceEnabled {
		n = 48 << 10
	}
	inputs := map[string][]byte{}
	for _, k := range corpus.Kinds() {
		inputs[k.String()] = corpus.Generate(k, WindowSize+n, 12)
	}
	for _, period := range []int{16, 256, 258} {
		inputs[fmt.Sprintf("period%d", period)] = testutil.Periodic(period, WindowSize+n)
	}
	fellBack := map[string][]string{}
	for _, p := range splitGeometries() {
		for name, data := range inputs {
			for _, hist := range []bool{false, true} {
				var history []byte
				if hist {
					history = data[:WindowSize]
				}
				src := data[WindowSize:]
				want, wst := NewHWMatcher(p).TokenizeWithHistory(nil, history, src)
				ref, rst := newRefHWMatcher(p).TokenizeWithHistory(nil, history, src)
				if wst != rst || diffTokens(want, ref) != nil {
					t.Fatalf("%+v %s: Tokenize and the reference differ", p, name)
				}
				for _, seam := range seams(p, len(src)) {
					t.Run(fmt.Sprintf("%d-%d-%d/%s/hist=%v/seam=%d", p.InputWidth, p.MaxDist, p.Banks, name, hist, seam), func(t *testing.T) {
						if checkSplit(t, p, want, wst, history, src, seam) < 0 {
							fellBack[name] = append(fellBack[name], fmt.Sprintf("width %d window %d hist=%v seam %d", p.InputWidth, p.MaxDist, hist, seam))
						}
					})
				}
			}
		}
		s := max(n/2-n/2%p.InputWidth, firstSeam(p)) // under -race n/2 is short of a window
		for off := 0; off < p.InputWidth; off++ {
			src := straddle(n, s, off)
			want, wst := NewHWMatcher(p).Tokenize(nil, src)
			ref, rst := newRefHWMatcher(p).Tokenize(nil, src)
			if wst != rst || diffTokens(want, ref) != nil {
				t.Fatalf("%+v straddle %d: Tokenize and the reference differ", p, off)
			}
			t.Run(fmt.Sprintf("%d-%d-%d/straddle%d", p.InputWidth, p.MaxDist, p.Banks, off), func(t *testing.T) {
				if met := checkSplit(t, p, want, wst, nil, src, s); met < MaxMatch/2+off {
					t.Fatalf("met %d past the seam, inside the match that crosses it", met)
				}
			})
		}
	}
	for name, at := range fellBack {
		t.Logf("%s met no mark, and ran on alone, at %d splits: %v", name, len(at), at)
	}
}

func FuzzSplitEqualsSerial(f *testing.F) {
	text := corpus.Generate(corpus.Text, 3000, 12)
	f.Add(text, uint16(0), uint16(1000))
	f.Add(text, uint16(1<<11|0x1a5), uint16(400))
	f.Add(bytes.Repeat([]byte("abcdefghijklmnop"), 100), uint16(0x0e1), uint16(512))
	f.Add(straddle(2048, 1024, 3), uint16(0x2a3), uint16(1024))
	f.Add(corpus.Generate(corpus.Binary, 1500, 12), uint16(1<<10|0x1ff), uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, cfg, at uint16) {
		p := fuzzParams(cfg)
		src := data
		if cfg>>10&1 == 1 {
			src = bytes.Repeat(data, 8)
		}
		var history []byte
		if cfg>>11&1 == 1 {
			history, src = src[:len(src)/4], src[len(src)/4:]
		}
		first := firstSeam(p)
		if len(src) < first {
			return
		}
		seam := first + int(at)%(len(src)-first+1)
		seam -= seam % p.InputWidth
		want, wst := NewHWMatcher(p).TokenizeWithHistory(nil, history, src)
		ref, rst := newRefHWMatcher(p).TokenizeWithHistory(nil, history, src)
		if wst != rst || diffTokens(want, ref) != nil {
			t.Fatalf("%+v: Tokenize and the reference differ", p)
		}
		got, gst, _ := splitRun(NewHWMatcher(p), NewHWMatcher(p), history, src, seam)
		if gst != wst {
			t.Fatalf("%+v seam %d: stats differ:\n got  %+v\n want %+v", p, seam, gst, wst)
		}
		if err := diffTokens(got, want); err != nil {
			t.Fatalf("%+v seam %d: %v", p, seam, err)
		}
	})
}

// BenchmarkHWMatcherSplit is bulk_oneshot's LZ stage: each of its eight
// kinds at 1 MiB, and at 512 KiB (internal/nx's splitMin) and 256 KiB, one
// pass against a split operation with the tail on a goroutine of its own
// and the seam where internal/nx puts it, two windows past the middle. Both
// report ns/B; a split also reports met_B, how far past the seam the head
// met the tail (-1: it met no mark and ran on alone, and the tail's work
// was dropped).
func BenchmarkHWMatcherSplit(b *testing.B) {
	for _, mc := range []struct {
		name string
		p    HWParams
	}{{"p9", P9HWParams()}, {"z15", Z15HWParams()}} {
		for _, size := range []int{256 << 10, 512 << 10, 1 << 20} {
			for _, k := range []corpus.Kind{corpus.Text, corpus.HTML, corpus.JSONLogs, corpus.Source,
				corpus.Columnar, corpus.DNA, corpus.Binary, corpus.Random} {
				benchSplit(b, fmt.Sprintf("%s/%dKiB", mc.name, size>>10), k.String(), mc.p, corpus.Generate(k, size, 12))
			}
		}
	}
}

// benchSplit runs BenchmarkHWMatcherSplit's serial and split rows of one
// source: prefix/serial/kind and prefix/split/kind.
func benchSplit(b *testing.B, prefix, kind string, p HWParams, src []byte) {
	seam := len(src)/2 + 2*p.MaxDist
	seam -= seam % p.InputWidth
	b.Run(prefix+"/serial/"+kind, func(b *testing.B) {
		m := NewHWMatcher(p)
		tokens, _ := m.Tokenize(nil, src)
		b.SetBytes(int64(len(src)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tokens, _ = m.Tokenize(tokens[:0], src)
		}
		reportNsPerByte(b, len(src))
		benchSink = len(tokens)
	})
	b.Run(prefix+"/split/"+kind, func(b *testing.B) {
		head, tail := NewHWMatcher(p), NewHWMatcher(p)
		buf := make([]Token, 0, len(src)+SeamSpan)
		done := make(chan struct{}, 1)
		wait := func() { <-done }
		met := 0
		b.SetBytes(int64(len(src)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			go func() {
				tail.TokenizeTail(buf, src, seam)
				done <- struct{}{}
			}()
			buf, _, met = head.TokenizeHead(buf[:0], nil, src, seam, tail, wait)
		}
		reportNsPerByte(b, len(src))
		b.ReportMetric(float64(met), "met_B")
		benchSink = len(buf)
	})
}

func reportNsPerByte(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/B")
}
