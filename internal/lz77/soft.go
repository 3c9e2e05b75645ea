package lz77

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Software matcher: hash-head + prev chains with lazy matching, following
// zlib's deflate. This is the reproduction's software baseline (the "zlib
// running on a general-purpose core" side of every speedup table).

// SoftParams are the per-level search tuning knobs, mirroring zlib's
// configuration_table.
type SoftParams struct {
	GoodLength int // reduce lazy search above this match length
	MaxLazy    int // do not perform lazy search above this length
	NiceLength int // stop searching when current match is at least this long
	MaxChain   int // maximum hash-chain links to follow
}

// softLevels mirrors zlib's deflate configuration table, levels 1..9.
var softLevels = [10]SoftParams{
	{},                   // level 0 unused (stored blocks handled by deflate pkg)
	{4, 4, 8, 4},         // 1: fastest
	{4, 5, 16, 8},        // 2
	{4, 6, 32, 32},       // 3
	{4, 4, 16, 16},       // 4 (lazy begins)
	{8, 16, 32, 32},      // 5
	{8, 16, 128, 128},    // 6: default
	{8, 32, 128, 256},    // 7
	{32, 128, 258, 1024}, // 8
	{32, 258, 258, 4096}, // 9: best
}

// LevelParams returns the zlib-equivalent tuning for compression levels
// 1..9.
func LevelParams(level int) SoftParams {
	if level < 1 {
		level = 1
	}
	if level > 9 {
		level = 9
	}
	return softLevels[level]
}

const (
	hashBits = 15
	hashSize = 1 << hashBits
)

// hash4 mixes the 4 bytes at p[i:] into hashBits. The accelerator and zlib
// both hash a short prefix; a multiplicative mix keeps chains short without
// per-byte shifting state.
func hash4(p []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(p[i:]) * 2654435761 >> (32 - hashBits)
}

// SoftMatcher is a reusable software LZ77 tokenizer.
type SoftMatcher struct {
	params SoftParams
	head   [hashSize]int32
	prev   []int32
}

// NewSoftMatcher returns a matcher with the given search parameters.
func NewSoftMatcher(params SoftParams) *SoftMatcher {
	m := &SoftMatcher{params: params}
	for i := range m.head {
		m.head[i] = -1
	}
	return m
}

// Tokenize produces the LZ77 token stream for src, appending to dst.
// Matching is confined to a WindowSize backward window, exactly as DEFLATE
// requires.
func (m *SoftMatcher) Tokenize(dst []Token, src []byte) []Token {
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
	// A token covers at least one byte: with room for n of them no append
	// below grows dst again.
	dst = slices.Grow(dst, n)

	insert := func(i int) {
		if i+MinMatch+1 > n {
			return
		}
		h := hash4(src, i)
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
func (m *SoftMatcher) findMatch(src []byte, i, prevLen int) (int, int) {
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
	h := hash4(src, i)
	cand := m.head[h]
	for cand > int32(limit) && chainLen > 0 {
		c := int(cand)
		// Quick reject: compare the byte one past the current best.
		if bestLen > 0 && (c+bestLen >= len(src) || src[c+bestLen] != src[i+bestLen]) {
			cand = m.prevLink(c)
			chainLen--
			continue
		}
		l := matchLen(src, c, i, maxLen)
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

func (m *SoftMatcher) prevLink(c int) int32 {
	if c >= len(m.prev) {
		return -1
	}
	return m.prev[c]
}

// matchLen counts matching bytes between positions a (candidate) and b
// (current), up to maxLen. Requires a < b and b+maxLen <= len(src).
func matchLen(src []byte, a, b, maxLen int) int {
	l := 0
	for ; l+8 <= maxLen; l += 8 {
		if x := binary.LittleEndian.Uint64(src[a+l:]) ^ binary.LittleEndian.Uint64(src[b+l:]); x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
	}
	for l < maxLen && src[a+l] == src[b+l] {
		l++
	}
	return l
}
