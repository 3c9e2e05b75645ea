package lz77

import (
	"fmt"
	"slices"
)

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

// HWMatcher is the hardware LZ77 model. It is NOT safe for concurrent use:
// the device model lends one to a request for the length of its LZ pass
// (nx's work areas), and what an operation computes does not depend on what
// the matcher ran before — no entry of an earlier operation is in any
// window of a later one.
//
// What is modelled is a banked, set-associative table of FIFO sets, one
// probe per position, emptied between operations without a wipe (the
// silicon tags valid bits with an epoch). How the host stores it is its own
// business as long as every token and every HWStats field comes out the
// same, and the host does not keep Banks x sets x Ways slots (8 MiB for the
// z15 geometry, of which a 32 KiB window can fill 128 KiB: a small request
// met a table nothing had touched). It keeps each set as a chain through
// the window: head holds base+position of the set's newest insert, and
// prev, a ring over the last 2 x WindowSize positions, holds for each
// inserted position the distance back to the insert before it in the same
// set — noLink if that one was already out of the window. Positions are
// inserted in strictly increasing order, so walking a chain from its head
// visits the set's inserts newest first, in ascending distance; the first
// Ways of them still in the window are exactly what the FIFO set would
// hold, and eviction is the walk stopping after Ways steps. Each
// operation's base lies more than MaxDist past everything the previous one
// stored, so a head left by an earlier operation reads as farther back
// than the window reaches: "stale" and "out of window" are one compare. A
// ring entry is overwritten by the position 2 x WindowSize later, by when
// its owner is out of every window.
type HWMatcher struct {
	p        HWParams
	sets     int
	head     []uint32 // [bank*sets + set] -> base + position of the set's newest insert
	prev     []uint16 // [(base + position) % ringLen] -> distance to the set's previous insert, noLink if none in the window
	end      uint32   // one past the largest entry any operation stored
	bankBeat []int64  // per-bank scratch: beat number the bank last served
	combined []byte   // TokenizeWithHistory scratch: history followed by src

	// The tail side of a split operation (split.go), kept for its head.
	marks      []mark  // loop starts on beat boundaries within SeamSpan past the seam
	tailTokens []Token // every token from the seam on
	tailStats  HWStats // the counters of the whole tail
}

// ringLen is 1<<16, so a uint16 conversion of base+position is the ring
// index and needs no bounds check. A link is at most WindowSize; noLink,
// where a set's previous insert is out of the window or there is none, is
// a distance that takes any walk out of the window, so the end of a chain
// needs no test of its own.
const (
	ringLen = 2 * WindowSize
	noLink  = 1<<16 - 1
)

// MaxInput is the longest source one operation can take. Heads are 32
// bits wide; the first sits MaxDist+1 above zero, which is what an empty
// set holds, and up to WindowSize bytes of replayed history come before
// the source.
const MaxInput = 1<<32 - 1 - (WindowSize + 1) - WindowSize

// NewHWMatcher validates params and builds the matcher. Banks must be a
// power of two (the bank index is a mask of the hash; anything else would
// alias banks and corrupt the conflict model) and Ways at most 255.
func NewHWMatcher(p HWParams) *HWMatcher {
	m := new(HWMatcher)
	m.Reset(p)
	return m
}

// Reset makes m the matcher NewHWMatcher(p) returns, in the memory it
// already has where that is enough: a matcher lent from one engine to the
// next takes the geometry of the engine in hand, and the zero HWMatcher is
// built by its first Reset. Nothing is wiped. Every entry of head, under
// any geometry, is at most end, and the next operation's base lies more
// than the new MaxDist past end, so what another geometry left reads as out
// of window like what an earlier operation left; head[len:cap] keeps such
// entries too, which is why rebase wipes the capacity.
func (m *HWMatcher) Reset(p HWParams) {
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
	if p == m.p {
		return
	}
	if p.Banks&(p.Banks-1) != 0 {
		panic(fmt.Sprintf("lz77: HWParams.Banks = %d is not a power of two", p.Banks))
	}
	if p.Ways > 255 {
		panic(fmt.Sprintf("lz77: HWParams.Ways = %d exceeds 255", p.Ways))
	}
	m.p, m.sets = p, 1<<p.HashBits
	if n := p.Banks * m.sets; n <= cap(m.head) {
		m.head = m.head[:n]
	} else {
		m.head = make([]uint32, n) // zero is what an empty set holds
	}
	if m.prev == nil {
		m.prev = make([]uint16, ringLen)
	}
	m.bankBeat = slices.Grow(m.bankBeat[:0], p.Banks)[:p.Banks]
}

// Params returns the configuration.
func (m *HWMatcher) Params() HWParams { return m.p }

// rebase returns the base of an operation over n bytes (history included):
// MaxDist+1 past the previous operation's last entry, so nothing that one
// left is in any window of this one. Only when 32 bits cannot hold base+n is
// head wiped — to its capacity: Reset may have left entries past its length
// — and the numbering restarted, once per 4 GiB of input, where the epoch
// tag this replaces wiped once per 2^16 operations. The ring is only ever
// read at positions a chain leads to, which this numbering wrote.
func (m *HWMatcher) rebase(n int) uint32 {
	if uint64(n) > MaxInput+WindowSize {
		panic(fmt.Sprintf("lz77: %d-byte operation exceeds MaxInput", n))
	}
	gap := uint32(m.p.MaxDist + 1)
	if uint64(m.end)+uint64(gap)+uint64(n) > 1<<32-1 {
		clear(m.head[:cap(m.head)])
		m.end = 0
	}
	base := m.end + gap
	m.end = base + uint32(n)
	return base
}

// Tokenize produces tokens for src and the cycle statistics of doing so.
func (m *HWMatcher) Tokenize(dst []Token, src []byte) ([]Token, HWStats) {
	return m.tokenizeFrom(dst, src, 0, nil)
}

// tokenizeFrom emits tokens for src[start:]; positions before start (the
// replayed history) are inserted only. Chains, geometry and counters live
// in locals for the whole scan (a store through m.head would force every
// m.* field to be reloaded), insert is written out where it happens, and
// HWStats is filled in once at the end. sd is one side of a split
// operation, nil off the split path: the loop then never reaches its watch.
func (m *HWMatcher) tokenizeFrom(dst []Token, src []byte, start int, sd *side) ([]Token, HWStats) {
	n := len(src)
	if n == 0 {
		return dst, HWStats{}
	}
	var (
		head     = m.head
		prev     = (*[ringLen]uint16)(m.prev)
		base     = m.rebase(n)
		ways     = m.p.Ways
		maxDist  = uint32(m.p.MaxDist)
		hashBits = uint(m.p.HashBits) & 31 // masked: the shifts below need no range check
		bankMask = uint32(m.p.Banks - 1)
		setMask  = uint32(m.sets - 1)
		lazy     = m.p.Lazy
		w        = m.p.InputWidth
		// Positions from hashEnd on are too close to the end to hash:
		// never probed, never inserted.
		hashEnd = n - MinMatch

		probes, conflicts, candidates, matches int64
	)
	// Room for the worst case, a literal per byte, so the loop stores
	// tokens by index instead of appending.
	k0 := len(dst)
	dst = slices.Grow(dst, n-start)[:k0+n-start]
	k := k0

	// Cycle model: each beat of InputWidth bytes costs one cycle plus one
	// replay cycle per bank conflict within the beat. We track which bank
	// each *probed* position used per beat. Positions covered by a match
	// are not probed but are still inserted (the hardware inserts every
	// position to keep history complete); inserts use a write port and do
	// not conflict with probes in this model.
	bankUsed := m.bankBeat
	for i := range bankUsed {
		bankUsed[i] = -1 // no bank has served a beat yet
	}
	// The beat of position i is (i-start)/w, recomputed only when i passes
	// beatEnd, the first position of the next beat.
	beat, beatEnd := int64(-1), start

	// Positions [from, to) are inserted without being probed: the replayed
	// history first, then what each match covers (bounded stride: hardware
	// inserts up to InputWidth positions per cycle as they stream through).
	from, to := 0, start
	i := start
	// The next loop start a split operation looks at (side.meet); it is
	// negative once the head has met the tail.
	watch := n
	if sd != nil {
		watch = sd.at
	}
	for {
		for j, end := from, min(to, hashEnd); j < end; j++ {
			h := hash4(src, j)
			idx := int(h&bankMask<<hashBits | h>>4&setMask)
			at := base + uint32(j)
			link := at - head[idx]
			if link > maxDist {
				link = noLink
			}
			prev[uint16(at)] = uint16(link)
			head[idx] = at
		}
		from = to
		if i >= hashEnd {
			break
		}
		if i >= watch {
			if watch = sd.meet(m, i, k-k0, probes, candidates, conflicts, matches); watch < 0 {
				break
			}
		}
		if i >= beatEnd {
			beat = int64((i - start) / w)
			beatEnd = start + (int(beat)+1)*w
		}
		h := hash4(src, i)
		bank := h & bankMask
		idx := int(bank<<hashBits | h>>4&setMask)
		probes++
		if bankUsed[bank] == beat {
			conflicts++
		}
		bankUsed[bank] = beat

		at := base + uint32(i)
		link := at - head[idx]
		length, dist, c := probe(src, prev, i, at, link, maxDist, ways)
		candidates += int64(c)
		if link > maxDist {
			link = noLink
		}
		prev[uint16(at)] = uint16(link)
		head[idx] = at

		if lazy && length >= MinMatch && length < 32 && i+1 < hashEnd {
			// One-deep lazy refinement: probe i+1; if strictly longer,
			// emit a literal and take the later match. The second probe
			// takes no part in the bank-conflict accounting.
			h := hash4(src, i+1)
			idx := int(h&bankMask<<hashBits | h>>4&setMask)
			at := at + 1
			link := at - head[idx]
			probes++
			l2, d2, c := probe(src, prev, i+1, at, link, maxDist, ways)
			candidates += int64(c)
			if l2 > length {
				dst[k] = Lit(src[i])
				k++
				i++
				if link > maxDist {
					link = noLink
				}
				prev[uint16(at)] = uint16(link)
				head[idx] = at
				length, dist = l2, d2
			}
		}

		if length >= MinMatch {
			dst[k] = Match(length, dist)
			k++
			matches++
			from, to = i+1, i+length
			i = to
			continue
		}
		dst[k] = Lit(src[i])
		k++
		i++
	}
	if watch < 0 {
		// The head met the tail at a mark: the rest of the parse, and of
		// every counter, is the tail's from there.
		t, mk := sd.tail, sd.tail.marks[sd.next]
		k += copy(dst[k:], t.tailTokens[mk.tokens:])
		probes += t.tailStats.Probes - mk.probes
		candidates += t.tailStats.Candidates - mk.candidates
		conflicts += t.tailStats.BankConflicts - mk.conflicts
		matches += t.tailStats.Matches - mk.matches
	} else {
		for ; i < n; i++ { // tail too short to match
			dst[k] = Lit(src[i])
			k++
		}
	}

	beats := int64((n - start + w - 1) / w)
	literals := int64(k-k0) - matches
	return dst[:k], HWStats{
		Cycles: beats + conflicts, Beats: beats, BankConflicts: conflicts,
		Probes: probes, Candidates: candidates, Matches: matches, Literals: literals,
	}
}

// probe compares position i, numbered cur, against the candidates of one
// set and returns the best match — the longest, and among equally long
// ones the nearest — and how many candidates were in the window. d is the
// distance to the set's newest insert; the walk follows the links from
// there, i.e. in ascending distance, for at most ways steps: the first
// distance beyond maxDist ends it (what follows is older still, the head was
// an earlier operation's or empty, or the link was noLink), and a later
// candidate can only win by being strictly longer.
func probe(src []byte, prev *[ringLen]uint16, i int, cur, d, maxDist uint32, ways int) (length, dist, candidates int) {
	maxLen := min(len(src)-i, MaxMatch)
	for ; ways > 0 && d <= maxDist; ways-- {
		// Candidates is a model counter: every in-window way is compared
		// by the hardware, whether or not the host needs to look.
		candidates++
		link := uint32(prev[uint16(cur-d)]) // loaded before the compare it does not depend on
		c := i - int(d)
		if length != maxLen && src[c+length] == src[i+length] {
			if l := matchLen(src, c, i, maxLen); l > length {
				length, dist = l, int(d)
			}
		}
		d += link
	}
	if length < MinMatch {
		return 0, 0, candidates
	}
	return length, dist, candidates
}
