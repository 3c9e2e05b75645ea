package lz77

import "fmt"

// Request-to-request history continuation.
//
// The accelerator is buffer-oriented: each CRB processes one source
// buffer. To compress a long stream as a *single* DEFLATE stream (rather
// than independent members), the NX software stack passes the last 32 KiB
// of already-processed data back to the engine with each request; the
// engine streams that history through the LZ stage first (re-populating
// the match tables) and then processes the new data, whose matches may
// reach back into the history. The replay is not free — it consumes input
// beats — which is exactly the overhead the paper's library discussion
// trades against the ratio gained at chunk boundaries.

// TokenizeWithHistory tokenizes src given that history (at most
// WindowSize bytes; longer slices use only the tail) immediately precedes
// it in the logical stream. Emitted match distances may reach into the
// history. The returned stats include the history replay beats.
func (m *HWMatcher) TokenizeWithHistory(dst []Token, history, src []byte) ([]Token, HWStats) {
	return m.tokenizeHistory(dst, history, src, nil)
}

// tokenizeHistory is TokenizeWithHistory as one side of a split operation,
// sd.at a position in src.
func (m *HWMatcher) tokenizeHistory(dst []Token, history, src []byte, sd *side) ([]Token, HWStats) {
	if len(history) == 0 {
		return m.tokenizeFrom(dst, src, 0, sd)
	}
	if len(history) > m.p.MaxDist {
		history = history[len(history)-m.p.MaxDist:]
	}
	// The matcher is single-user, so the history+src image lives in a
	// scratch buffer it owns rather than a fresh allocation per segment.
	m.combined = append(append(m.combined[:0], history...), src...)
	if sd != nil {
		sd.at += len(history)
	}

	dst, st := m.tokenizeFrom(dst, m.combined, len(history), sd)
	// History replay cost: the engine ingests the history at line rate to
	// rebuild its tables before new data can be matched.
	replay := int64((len(history) + m.p.InputWidth - 1) / m.p.InputWidth)
	st.Beats += replay
	st.Cycles += replay
	return dst, st
}

// TokenizeWithHistory is the software matcher's equivalent: hash the
// history, then emit tokens for src only.
func (m *SoftMatcher) TokenizeWithHistory(dst []Token, history, src []byte) []Token {
	if len(history) == 0 {
		return m.Tokenize(dst, src)
	}
	if len(history) > WindowSize {
		history = history[len(history)-WindowSize:]
	}
	combined := make([]byte, 0, len(history)+len(src))
	combined = append(combined, history...)
	combined = append(combined, src...)

	// Tokenize the whole thing, then re-tokenize: simplest correct
	// approach is to tokenize combined and split the token stream at the
	// history boundary. A match can straddle the boundary, so instead we
	// run the scan but suppress emission before the boundary by walking
	// tokens and re-aligning.
	all := m.Tokenize(nil, combined)
	pos := 0
	for idx, t := range all {
		width := 1
		if t.IsMatch() {
			width = t.Length()
		}
		if pos >= len(history) {
			return append(dst, all[idx:]...)
		}
		if pos+width > len(history) {
			// A token straddles the boundary. For a match, the src-side
			// remainder still copies from the same distance (the copy
			// source advances in lockstep), so re-emit it as one or more
			// matches at that distance; only a sub-MinMatch tail falls
			// back to literals.
			overlap := pos + width - len(history)
			at := len(history)
			if t.IsMatch() {
				d := t.Dist()
				for overlap >= MinMatch {
					l := overlap
					if l > MaxMatch {
						l = MaxMatch
					}
					dst = append(dst, Match(l, d))
					overlap -= l
					at += l
				}
			}
			for ; overlap > 0; overlap-- {
				dst = append(dst, Lit(combined[at]))
				at++
			}
			pos += width
			continue
		}
		pos += width
	}
	return dst
}

// ExpandWithHistory reconstructs bytes from tokens whose distances may
// reach into history.
func ExpandWithHistory(history []byte, tokens []Token) ([]byte, error) {
	buf := append([]byte{}, history...)
	out, err := Expand(buf, tokens)
	if err != nil {
		return nil, err
	}
	return out[len(history):], nil
}

// ValidateWithHistory checks that tokens reproduce src given history.
func ValidateWithHistory(tokens []Token, history, src []byte) error {
	out, err := ExpandWithHistory(history, tokens)
	if err != nil {
		return err
	}
	if len(out) != len(src) {
		return fmt.Errorf("lz77: history expansion produced %d bytes, want %d", len(out), len(src))
	}
	for i := range out {
		if out[i] != src[i] {
			return fmt.Errorf("lz77: history expansion mismatch at byte %d", i)
		}
	}
	return nil
}
