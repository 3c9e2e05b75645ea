package lz77

// refSoftMatcher is SoftMatcher as it stood before matchLen and hash4
// moved to wide loads, bound to the byte-loop refMatchLen/refHash4: the
// oracle for "SoftMatcher's output did not change".
type refSoftMatcher struct {
	params SoftParams
	head   [hashSize]int32
	prev   []int32
}

// newRefSoftMatcher returns a matcher with the given search parameters.
func newRefSoftMatcher(params SoftParams) *refSoftMatcher {
	m := &refSoftMatcher{params: params}
	for i := range m.head {
		m.head[i] = -1
	}
	return m
}

// Tokenize produces the LZ77 token stream for src, appending to dst.
// Matching is confined to a WindowSize backward window, exactly as DEFLATE
// requires.
func (m *refSoftMatcher) Tokenize(dst []Token, src []byte) []Token {
	n := len(src)
	if n == 0 {
		return dst
	}
	for i := range m.head {
		m.head[i] = -1
	}
	if cap(m.prev) < n {
		m.prev = make([]int32, n)
	}
	prev := m.prev[:n]

	insert := func(i int) {
		if i+MinMatch+1 > n {
			return
		}
		h := refHash4(src, i)
		prev[i] = m.head[h]
		m.head[h] = int32(i)
	}

	// Lazy-matching state.
	havePrev := false
	prevLen, prevDist := 0, 0

	i := 0
	for i < n {
		length, dist := 0, 0
		if i+MinMatch+1 <= n {
			length, dist = m.findMatch(src, i, prevLen)
		}
		if havePrev {
			// zlib lazy rule: emit previous match unless the current one is
			// strictly better.
			if length > prevLen {
				// Previous byte becomes a literal; keep searching from here.
				dst = append(dst, Lit(src[i-1]))
				havePrev = true
				prevLen, prevDist = length, dist
				insert(i)
				i++
				continue
			}
			dst = append(dst, Match(prevLen, prevDist))
			// Insert hash entries for the rest of the matched span
			// (position i-1 was inserted when the match was deferred).
			end := i - 1 + prevLen
			for j := i; j < end && j < n; j++ {
				insert(j)
			}
			havePrev = false
			prevLen = 0
			i = end
			continue
		}
		if length >= MinMatch {
			if length <= m.params.MaxLazy && i+1 < n {
				// Defer: maybe the next position matches longer.
				havePrev = true
				prevLen, prevDist = length, dist
				insert(i)
				i++
				continue
			}
			dst = append(dst, Match(length, dist))
			end := i + length
			for j := i + 1; j < end && j < n; j++ {
				insert(j)
			}
			i = end
			continue
		}
		dst = append(dst, Lit(src[i]))
		insert(i)
		i++
	}
	if havePrev {
		dst = append(dst, Match(prevLen, prevDist))
		// Trailing bytes past the match were already consumed by the loop
		// bound; nothing further to emit: the match ends exactly at n or
		// earlier, and the main loop exited with i == n.
		tail := i - 1 + prevLen
		for j := tail; j < n; j++ {
			dst = append(dst, Lit(src[j]))
		}
	}
	return dst
}

// findMatch searches the hash chain at position i and returns the best
// (length, dist) found, honoring the level's chain and nice-length bounds.
func (m *refSoftMatcher) findMatch(src []byte, i, prevLen int) (int, int) {
	params := m.params
	chainLen := params.MaxChain
	if prevLen >= params.GoodLength {
		chainLen >>= 2
	}
	limit := i - WindowSize
	if limit < 0 {
		limit = -1
	}
	maxLen := len(src) - i
	if maxLen > MaxMatch {
		maxLen = MaxMatch
	}
	bestLen, bestDist := 0, 0
	h := refHash4(src, i)
	cand := m.head[h]
	for cand > int32(limit) && chainLen > 0 {
		c := int(cand)
		// Quick reject: compare the byte one past the current best.
		if bestLen > 0 && (c+bestLen >= len(src) || src[c+bestLen] != src[i+bestLen]) {
			cand = m.prevLink(c)
			chainLen--
			continue
		}
		l := refMatchLen(src, c, i, maxLen)
		if l > bestLen {
			bestLen, bestDist = l, i-c
			if l >= params.NiceLength || l == maxLen {
				break
			}
		}
		cand = m.prevLink(c)
		chainLen--
	}
	if bestLen < MinMatch {
		return 0, 0
	}
	return bestLen, bestDist
}

func (m *refSoftMatcher) prevLink(c int) int32 {
	if c >= len(m.prev) {
		return -1
	}
	return m.prev[c]
}
