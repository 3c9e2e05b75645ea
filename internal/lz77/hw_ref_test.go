package lz77

// refHWMatcher is the HWMatcher implementation as it stood before the host
// rewrite (slice-of-slices table, shift-register insert, byte-loop
// matchLen, separate Tokenize and tokenizeFrom), kept verbatim as the
// oracle the production matcher is differentially tested against: equal
// tokens and equal HWStats on every input is what makes the rewrite a
// host-only change.
type refHWMatcher struct {
	p        HWParams
	table    [][]int32 // [bank*sets + set][way] -> position, -1 if empty
	sets     int
	gen      uint32
	setGen   []uint32
	bankBeat []int64
}

// newRefHWMatcher takes params already defaulted by NewHWMatcher.
func newRefHWMatcher(p HWParams) *refHWMatcher {
	m := &refHWMatcher{p: p, sets: 1 << p.HashBits, gen: 1}
	m.table = make([][]int32, p.Banks*m.sets)
	ways := make([]int32, len(m.table)*p.Ways)
	for i := range m.table {
		m.table[i] = ways[i*p.Ways : (i+1)*p.Ways : (i+1)*p.Ways]
	}
	m.setGen = make([]uint32, len(m.table))
	return m
}

func refHash4(p []byte, i int) uint32 {
	v := uint32(p[i]) | uint32(p[i+1])<<8 | uint32(p[i+2])<<16 | uint32(p[i+3])<<24
	return v * 2654435761 >> (32 - hashBits)
}

func (m *refHWMatcher) reset() {
	m.gen++
	if m.gen == 0 {
		// Generation counter wrapped: pay the full wipe once per 2^32
		// operations so a set tagged in a previous epoch cannot read as
		// current.
		for i := range m.setGen {
			m.setGen[i] = 0
		}
		m.gen = 1
	}
}

// slot returns (bank, set) for the hash of position i.
func (m *refHWMatcher) slot(src []byte, i int) (int, int) {
	h := refHash4(src, i)
	bank := int(h) & (m.p.Banks - 1)
	set := (int(h) >> 4) & (m.sets - 1)
	return bank, set
}

// Tokenize produces tokens for src and the cycle statistics of doing so.
func (m *refHWMatcher) Tokenize(dst []Token, src []byte) ([]Token, HWStats) {
	var st HWStats
	n := len(src)
	if n == 0 {
		return dst, st
	}
	m.reset()

	w := m.p.InputWidth
	st.Beats = int64((n + w - 1) / w)

	// Cycle model: each beat of InputWidth bytes costs one cycle plus one
	// replay cycle per bank conflict within the beat. We track which bank
	// each *probed* position used per beat. Positions covered by an
	// in-progress match are not probed for matching but are still inserted
	// (the hardware inserts every position to keep history complete);
	// inserts use a write port and do not conflict with probes in this
	// model.
	if m.bankBeat == nil {
		m.bankBeat = make([]int64, m.p.Banks)
	}
	bankUsed := m.bankBeat // -1 init: no bank has served a beat yet
	for i := range bankUsed {
		bankUsed[i] = -1
	}

	i := 0
	for i < n {
		if i+MinMatch+1 > n {
			// Tail too short to match.
			dst = append(dst, Lit(src[i]))
			st.Literals++
			i++
			continue
		}
		beat := int64(i / w)
		bank, set := m.slot(src, i)
		st.Probes++
		if bankUsed[bank] == beat {
			st.BankConflicts++
		}
		bankUsed[bank] = beat

		length, dist := m.probe(src, i, &st, bank, set)
		m.insert(src, i, bank, set)

		if m.p.Lazy && length >= MinMatch && length < 32 && i+1+MinMatch+1 <= n {
			// One-deep lazy refinement: probe i+1; if strictly longer,
			// emit a literal and take the later match.
			b2, s2 := m.slot(src, i+1)
			st.Probes++
			l2, d2 := m.probe(src, i+1, &st, b2, s2)
			if l2 > length {
				dst = append(dst, Lit(src[i]))
				st.Literals++
				i++
				m.insert(src, i, b2, s2)
				length, dist = l2, d2
				bank, set = b2, s2
			}
		}

		if length >= MinMatch {
			dst = append(dst, Match(length, dist))
			st.Matches++
			end := i + length
			// Insert the covered positions (bounded stride: hardware
			// inserts up to InputWidth positions per cycle as they stream
			// through).
			for j := i + 1; j < end && j+MinMatch+1 <= n; j++ {
				bj, sj := m.slot(src, j)
				m.insert(src, j, bj, sj)
			}
			i = end
			continue
		}
		dst = append(dst, Lit(src[i]))
		st.Literals++
		i++
	}

	st.Cycles = st.Beats + st.BankConflicts
	return dst, st
}

// probe compares the (at most Ways) candidates in the set against the
// current position and returns the best match.
func (m *refHWMatcher) probe(src []byte, i int, st *HWStats, bank, set int) (int, int) {
	idx := bank*m.sets + set
	if m.setGen[idx] != m.gen {
		// Stale epoch: the set holds no candidates from this operation.
		return 0, 0
	}
	entry := m.table[idx]
	maxLen := len(src) - i
	if maxLen > MaxMatch {
		maxLen = MaxMatch
	}
	bestLen, bestDist := 0, 0
	for _, cand := range entry {
		if cand < 0 {
			continue
		}
		c := int(cand)
		d := i - c
		if d <= 0 || d > m.p.MaxDist {
			continue
		}
		st.Candidates++
		l := refMatchLen(src, c, i, maxLen)
		if l > bestLen || (l == bestLen && d < bestDist) {
			bestLen, bestDist = l, d
		}
	}
	if bestLen < MinMatch {
		return 0, 0
	}
	return bestLen, bestDist
}

// insert records position i in its set with FIFO replacement (the oldest
// way is evicted), matching a simple hardware shift-register set.
func (m *refHWMatcher) insert(src []byte, i, bank, set int) {
	idx := bank*m.sets + set
	entry := m.table[idx]
	if m.setGen[idx] != m.gen {
		// First touch this operation: lazily invalidate the stale ways.
		for w := range entry {
			entry[w] = -1
		}
		m.setGen[idx] = m.gen
	}
	copy(entry[1:], entry[:len(entry)-1])
	entry[0] = int32(i)
}

func (m *refHWMatcher) TokenizeWithHistory(dst []Token, history, src []byte) ([]Token, HWStats) {
	if len(history) == 0 {
		return m.Tokenize(dst, src)
	}
	if len(history) > m.p.MaxDist {
		history = history[len(history)-m.p.MaxDist:]
	}
	combined := make([]byte, 0, len(history)+len(src))
	combined = append(combined, history...)
	combined = append(combined, src...)

	dst, st := m.tokenizeFrom(dst, combined, len(history))
	// History replay cost: the engine ingests the history at line rate to
	// rebuild its tables before new data can be matched.
	replay := int64((len(history) + m.p.InputWidth - 1) / m.p.InputWidth)
	st.Beats += replay
	st.Cycles += replay
	return dst, st
}

// tokenizeFrom is Tokenize generalized to start emitting at offset start;
// positions before start are table-inserted only.
func (m *refHWMatcher) tokenizeFrom(dst []Token, src []byte, start int) ([]Token, HWStats) {
	var st HWStats
	n := len(src)
	if n == 0 {
		return dst, st
	}
	m.reset()

	w := m.p.InputWidth
	st.Beats = int64((n - start + w - 1) / w)

	if m.bankBeat == nil {
		m.bankBeat = make([]int64, m.p.Banks)
	}
	bankUsed := m.bankBeat
	for i := range bankUsed {
		bankUsed[i] = -1
	}

	// Replay phase: insert history positions without emitting tokens.
	for j := 0; j+MinMatch+1 <= n && j < start; j++ {
		bj, sj := m.slot(src, j)
		m.insert(src, j, bj, sj)
	}

	i := start
	for i < n {
		if i+MinMatch+1 > n {
			dst = append(dst, Lit(src[i]))
			st.Literals++
			i++
			continue
		}
		beat := int64((i - start) / w)
		bank, set := m.slot(src, i)
		st.Probes++
		if bankUsed[bank] == beat {
			st.BankConflicts++
		}
		bankUsed[bank] = beat

		length, dist := m.probe(src, i, &st, bank, set)
		m.insert(src, i, bank, set)

		if m.p.Lazy && length >= MinMatch && length < 32 && i+1+MinMatch+1 <= n {
			b2, s2 := m.slot(src, i+1)
			st.Probes++
			l2, d2 := m.probe(src, i+1, &st, b2, s2)
			if l2 > length {
				dst = append(dst, Lit(src[i]))
				st.Literals++
				i++
				m.insert(src, i, b2, s2)
				length, dist = l2, d2
			}
		}

		if length >= MinMatch {
			dst = append(dst, Match(length, dist))
			st.Matches++
			end := i + length
			for j := i + 1; j < end && j+MinMatch+1 <= n; j++ {
				bj, sj := m.slot(src, j)
				m.insert(src, j, bj, sj)
			}
			i = end
			continue
		}
		dst = append(dst, Lit(src[i]))
		st.Literals++
		i++
	}

	st.Cycles = st.Beats + st.BankConflicts
	return dst, st
}

// matchLen counts matching bytes between positions a (candidate) and b
// (current), up to maxLen.
func refMatchLen(src []byte, a, b, maxLen int) int {
	l := 0
	for l < maxLen && src[a+l] == src[b+l] {
		l++
	}
	return l
}
