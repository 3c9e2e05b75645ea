package lz77

import "fmt"

// Hardware matcher: a functional and cycle-approximate model of the LZ77
// stage in the POWER9/z15 compression accelerator.
//
// The hardware cannot afford software's deep hash-chain walks. Instead it
// keeps a banked, set-associative hash table of recent positions: every
// input position performs exactly one probe that returns at most Ways
// candidates, all compared in parallel. The engine ingests InputWidth bytes
// per cycle; positions that hash to the same bank in the same beat collide
// and cost replay cycles (tracked, because bank conflicts are one of the
// design trade-offs the paper discusses).
//
// The trade-off this models is the paper's central one: a small, fixed
// amount of matching work per byte yields deterministic line-rate
// throughput at a compression-ratio cost of a few percent versus zlib
// level 6.

// HWParams configures the hardware LZ stage. Input widths are calibrated
// so that width x nest clock reproduces the published engine rates
// (P9 ~8 GB/s compression, z15 double that).
type HWParams struct {
	InputWidth int  // bytes ingested per cycle (P9: 8, z15: 16)
	Banks      int  // hash table banks (power of two)
	Ways       int  // candidate positions per set
	HashBits   int  // log2 of sets per bank
	Lazy       bool // evaluate one-position lazy heuristic (z15 refinement)
	MaxDist    int  // backward window (<= WindowSize)
}

// P9HWParams returns the POWER9 NX GZIP LZ-stage configuration used by the
// accelerator model.
func P9HWParams() HWParams {
	return HWParams{InputWidth: 8, Banks: 16, Ways: 16, HashBits: 11, Lazy: false, MaxDist: WindowSize}
}

// Z15HWParams returns the z15 (Integrated Accelerator for zEDC)
// configuration: twice the ingest width and a lazy refinement that claws
// back part of the ratio loss.
func Z15HWParams() HWParams {
	return HWParams{InputWidth: 16, Banks: 64, Ways: 16, HashBits: 11, Lazy: true, MaxDist: WindowSize}
}

// HWStats reports cycle-level behaviour of one Tokenize call.
type HWStats struct {
	Cycles        int64 // total LZ-stage cycles consumed
	Beats         int64 // input beats (ceil(n/InputWidth)) before replays
	BankConflicts int64 // probes serialized behind another probe to the same bank
	Probes        int64 // hash-table probes issued
	Candidates    int64 // candidate comparisons performed
	Matches       int64 // match tokens emitted
	Literals      int64 // literal tokens emitted
}

// HWMatcher is the hardware LZ77 model. It is NOT safe for concurrent use;
// the device model serializes requests per engine, matching the silicon.
//
// What is modelled is a banked, set-associative table of FIFO sets, one
// probe per position, invalidated between operations by an epoch tag. How
// the host stores it is its own business as long as every token and every
// HWStats field comes out the same: each set is one contiguous row of Ways
// positions (one 64-byte line at Ways = 16) used as a ring, plus one
// setMeta word. Positions are inserted in strictly increasing order within
// an operation, so walking a ring newest to oldest visits candidates in
// ascending distance — which is what makes probe's early exits exact.
type HWMatcher struct {
	p     HWParams
	sets  int
	table []int32   // [(bank*sets+set)*Ways + way] -> position
	meta  []setMeta // [bank*sets + set]
	// History invalidation between operations is an epoch tag on each
	// set's valid bits, the way the silicon does it — a set whose tag
	// differs from the current generation holds no candidates. A full
	// SRAM wipe per operation would cost millions of cycles (8 MB of
	// table for the z15 geometry) and would dominate every small request.
	gen      uint16
	bankBeat []int64 // per-bank scratch: beat number the bank last served
	combined []byte  // TokenizeWithHistory scratch: history followed by src
}

// setMeta is one set's valid bits: the epoch that wrote it, the ring slot
// the next insert overwrites (the oldest way once the set is full) and how
// many ways hold a position from this epoch.
type setMeta struct {
	gen     uint16
	head, n uint8
}

// NewHWMatcher validates params and builds the matcher. Banks must be a
// power of two (the bank index is a mask of the hash; anything else would
// alias banks and corrupt the conflict model) and Ways at most 255.
func NewHWMatcher(p HWParams) *HWMatcher {
	if p.InputWidth <= 0 {
		p.InputWidth = 16
	}
	if p.Banks <= 0 {
		p.Banks = 16
	}
	if p.Ways <= 0 {
		p.Ways = 4
	}
	if p.HashBits <= 0 {
		p.HashBits = 9
	}
	if p.MaxDist <= 0 || p.MaxDist > WindowSize {
		p.MaxDist = WindowSize
	}
	if p.Banks&(p.Banks-1) != 0 {
		panic(fmt.Sprintf("lz77: HWParams.Banks = %d is not a power of two", p.Banks))
	}
	if p.Ways > 255 {
		panic(fmt.Sprintf("lz77: HWParams.Ways = %d exceeds 255", p.Ways))
	}
	m := &HWMatcher{p: p, sets: 1 << p.HashBits, gen: 1}
	// meta starts zeroed: every set is stale relative to gen 1.
	m.meta = make([]setMeta, p.Banks*m.sets)
	m.table = make([]int32, len(m.meta)*p.Ways)
	m.bankBeat = make([]int64, p.Banks)
	return m
}

// Params returns the configuration.
func (m *HWMatcher) Params() HWParams { return m.p }

func (m *HWMatcher) reset() {
	m.gen++
	if m.gen == 0 {
		// Generation counter wrapped: pay the full wipe once per 2^16
		// operations so a set tagged in a previous epoch cannot read as
		// current.
		clear(m.meta)
		m.gen = 1
	}
}

// slot returns the index into meta of the set position i hashes to; the
// bank is slot >> HashBits.
func (m *HWMatcher) slot(src []byte, i int) int {
	h := int(hash4(src, i))
	return h&(m.p.Banks-1)<<m.p.HashBits | (h>>4)&(m.sets-1)
}

// Tokenize produces tokens for src and the cycle statistics of doing so.
func (m *HWMatcher) Tokenize(dst []Token, src []byte) ([]Token, HWStats) {
	return m.tokenizeFrom(dst, src, 0)
}

// tokenizeFrom emits tokens for src[start:]; positions before start (the
// replayed history) are table-inserted only.
func (m *HWMatcher) tokenizeFrom(dst []Token, src []byte, start int) ([]Token, HWStats) {
	var st HWStats
	n := len(src)
	if n == 0 {
		return dst, st
	}
	m.reset()

	w := m.p.InputWidth
	st.Beats = int64((n - start + w - 1) / w)

	// Cycle model: each beat of InputWidth bytes costs one cycle plus one
	// replay cycle per bank conflict within the beat. We track which bank
	// each *probed* position used per beat. Positions covered by an
	// in-progress match are not probed for matching but are still inserted
	// (the hardware inserts every position to keep history complete);
	// inserts use a write port and do not conflict with probes in this
	// model.
	bankUsed := m.bankBeat
	for i := range bankUsed {
		bankUsed[i] = -1 // no bank has served a beat yet
	}

	// Replay phase: insert history positions without emitting tokens.
	for j := 0; j+MinMatch+1 <= n && j < start; j++ {
		m.insert(j, m.slot(src, j))
	}

	i := start
	for i < n {
		if i+MinMatch+1 > n {
			// Tail too short to match.
			dst = append(dst, Lit(src[i]))
			st.Literals++
			i++
			continue
		}
		beat := int64((i - start) / w)
		idx := m.slot(src, i)
		bank := idx >> m.p.HashBits
		st.Probes++
		if bankUsed[bank] == beat {
			st.BankConflicts++
		}
		bankUsed[bank] = beat

		length, dist := m.probe(src, i, &st, idx)
		m.insert(i, idx)

		if m.p.Lazy && length >= MinMatch && length < 32 && i+1+MinMatch+1 <= n {
			// One-deep lazy refinement: probe i+1; if strictly longer,
			// emit a literal and take the later match. The second probe
			// takes no part in the bank-conflict accounting.
			idx2 := m.slot(src, i+1)
			st.Probes++
			l2, d2 := m.probe(src, i+1, &st, idx2)
			if l2 > length {
				dst = append(dst, Lit(src[i]))
				st.Literals++
				i++
				m.insert(i, idx2)
				length, dist = l2, d2
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
				m.insert(j, m.slot(src, j))
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
// current position and returns the best match: the longest, and among
// equally long ones the nearest. It walks the ring newest to oldest, i.e.
// in ascending distance, so the first candidate beyond MaxDist ends the
// walk and a later candidate can only win by being strictly longer.
func (m *HWMatcher) probe(src []byte, i int, st *HWStats, idx int) (int, int) {
	md := m.meta[idx]
	if md.gen != m.gen {
		// Stale epoch: the set holds no candidates from this operation.
		return 0, 0
	}
	ways := m.p.Ways
	row := m.table[idx*ways : idx*ways+ways]
	maxLen := len(src) - i
	if maxLen > MaxMatch {
		maxLen = MaxMatch
	}
	bestLen, bestDist := 0, 0
	way := int(md.head)
	for k := int(md.n); k > 0; k-- {
		if way == 0 {
			way = ways
		}
		way--
		c := int(row[way])
		d := i - c
		if d > m.p.MaxDist {
			break
		}
		// Candidates is a model counter: every in-window way is compared
		// by the hardware, whether or not the host needs to look.
		st.Candidates++
		if bestLen == maxLen || src[c+bestLen] != src[i+bestLen] {
			continue
		}
		if l := matchLen(src, c, i, maxLen); l > bestLen {
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
func (m *HWMatcher) insert(i, idx int) {
	md := &m.meta[idx]
	if md.gen != m.gen {
		*md = setMeta{gen: m.gen}
	}
	m.table[idx*m.p.Ways+int(md.head)] = int32(i)
	if md.head++; int(md.head) == m.p.Ways {
		md.head = 0
	}
	if int(md.n) < m.p.Ways {
		md.n++
	}
}
