package lz77

import (
	"fmt"
	"math"
)

// A split operation: one source tokenized from two ends at once, on two
// matchers, into exactly the tokens and HWStats one Tokenize (or
// TokenizeWithHistory) of it returns.
//
// The tail starts at the seam, a beat boundary at least MaxDist into the
// source, behind the MaxDist bytes before it replayed insert-only. It marks
// every loop start of its parse that falls on a beat boundary within
// SeamSpan past the seam, with the token count and counters so far. The
// head runs the whole source; from the seam on it stops at the first loop
// start the tail marked, and the rest of the parse is the tail's.
//
// The two parses agree from a common loop start p on because the state
// the loop reads there is the same on both sides:
//   - every position below hashEnd is inserted exactly once, in increasing
//     order, whether it was probed or covered by a match, so the table at p
//     holds the same chains through src[p-MaxDist, p), and what the tail
//     never inserted lies farther back than any walk from p reaches: a
//     walk ends at the first distance past MaxDist;
//   - no lazy state crosses a loop start;
//   - bank-conflict state belongs to one beat, and at a beat boundary no
//     bank has served the beat yet.
//
// Where the head meets no mark within SeamSpan it runs on alone to the end
// — the serial run — and the tail's work is dropped.

// SeamSpan is how far past the seam the tail marks its loop starts, and how
// far the head looks for one.
const SeamSpan = 16 << 10

// mark is the tail's state at a loop start on a beat boundary: how far past
// the seam, and the tokens and counters so far.
type mark struct {
	at, tokens                             int
	probes, candidates, conflicts, matches int64
}

// side is one side of a split operation, seen from its own parse: at is the
// loop position (in the side's own src) of the seam.
type side struct {
	at int
	// The head's: the tail's matcher, read only after wait has returned;
	// whether it has and whether the head met the tail; and the first of
	// the tail's marks not yet passed.
	tail        *HWMatcher
	wait        func()
	waited, met bool
	next        int
}

// meet runs at a watched loop start i of m's parse, with k tokens and the
// counters so far, and returns the next loop start to watch. The tail marks
// i when it is a beat boundary and watches the next one, up to SeamSpan.
// The head waits for the tail once and then watches the tail's marks in
// turn; meeting one, it returns -1.
func (sd *side) meet(m *HWMatcher, i, k int, probes, candidates, conflicts, matches int64) int {
	d, w := i-sd.at, m.p.InputWidth
	if sd.tail == nil {
		if d >= SeamSpan {
			return math.MaxInt
		}
		if d%w == 0 {
			m.marks = append(m.marks, mark{d, k, probes, candidates, conflicts, matches})
		}
		return sd.at + (d/w+1)*w
	}
	if !sd.waited {
		sd.wait()
		sd.waited = true
	}
	marks := sd.tail.marks
	for sd.next < len(marks) && marks[sd.next].at < d {
		sd.next++
	}
	switch {
	case sd.next == len(marks):
		return math.MaxInt
	case marks[sd.next].at == d:
		sd.met = true
		return -1
	}
	return sd.at + marks[sd.next].at
}

// TokenizeTail is the tail of a split operation over src at seam (a
// multiple of InputWidth, at least MaxDist): the parse from seam on, behind
// the MaxDist bytes before it replayed, kept in m for the head. dst is the
// buffer the head will be handed, with room for len(src)+SeamSpan tokens:
// the tail writes into it from index seam+SeamSpan on, which the head does
// not reach before it has waited for the tail.
func (m *HWMatcher) TokenizeTail(dst []Token, src []byte, seam int) {
	if seam%m.p.InputWidth != 0 || seam < m.p.MaxDist || seam > len(src) || cap(dst) < len(src)+SeamSpan {
		panic(fmt.Sprintf("lz77: seam %d of a %d-byte source into room for %d tokens (InputWidth %d, MaxDist %d)",
			seam, len(src), cap(dst), m.p.InputWidth, m.p.MaxDist))
	}
	at := seam + SeamSpan
	m.marks = m.marks[:0]
	tokens, st := m.tokenizeFrom(dst[:at], src[seam-m.p.MaxDist:], m.p.MaxDist, &side{at: m.p.MaxDist})
	m.tailTokens, m.tailStats = tokens[at:], st
}

// TokenizeHead is the head of a split operation: TokenizeWithHistory(dst,
// history, src) — history may be empty — while tail runs TokenizeTail over
// src at seam into dst. It calls wait exactly once, before it reads
// anything of tail's, and wait must return only once TokenizeTail has. The
// tokens and HWStats are TokenizeWithHistory's; the int is how far past
// the seam the head met the tail, or -1 where it ran on alone.
func (m *HWMatcher) TokenizeHead(dst []Token, history, src []byte, seam int, tail *HWMatcher, wait func()) ([]Token, HWStats, int) {
	sd := side{at: seam, tail: tail, wait: wait}
	dst, st := m.tokenizeHistory(dst, history, src, &sd)
	if !sd.waited {
		wait()
	}
	met := -1
	if sd.met {
		met = tail.marks[sd.next].at
	}
	tail.tailTokens = nil // the head's buffer, or garbage
	return dst, st, met
}
