// Package huffman implements canonical, length-limited Huffman codes as
// used by DEFLATE and by the dynamic-Huffman-table (DHT) generator inside
// the POWER9/z15 compression accelerator.
//
// The package is format-agnostic: it turns symbol frequencies into code
// lengths (bounded by a maximum bit length), assigns canonical codes, and
// builds fast decode tables. DEFLATE-specific serialization of the tables
// lives in the deflate package.
package huffman

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// MaxBitsDeflate is the DEFLATE code-length ceiling for literal/length and
// distance alphabets.
const MaxBitsDeflate = 15

// MaxSymbols is the largest alphabet a Builder takes: DEFLATE's
// literal/length alphabet with its two reserved symbols.
const MaxSymbols = 288

// Builder is the scratch of code-length construction, all fixed arrays: an
// encoder that keeps one builds table after table without touching the
// heap. The zero value is ready to use.
type Builder struct {
	heap [MaxSymbols]buildItem
	// Tree nodes by index — the live symbols in symbol order, then the
	// internal nodes in creation order, so a parent's index is above its
	// children's: a node's parent, overwritten top-down with its depth.
	node [2 * MaxSymbols]uint16
}

// buildItem is one heap entry: a subtree's weight, its height (the
// tie-break: prefer shallower subtrees so the tree stays balanced and
// rarely violates the length limit in the first place) and its node. The
// overflow repair reuses the array to sort symbols by frequency.
type buildItem struct {
	weight int64
	height int32
	node   int32
}

// lessBit is 1 when a orders before b by (weight, height): weights are
// never negative, so it is the borrow out of one 128-bit subtraction. As a
// number it steers the sift without a branch — "which child is smaller"
// is a coin toss no predictor learns on tables that differ from request
// to request (BenchmarkBuildLengthsVaried: 48 µs branching, 30 µs adding).
func (a buildItem) lessBit(b buildItem) uint64 {
	_, borrow := bits.Sub64(uint64(a.height), uint64(b.height), 0)
	_, borrow = bits.Sub64(uint64(a.weight), uint64(b.weight), borrow)
	return borrow
}

func (a buildItem) less(b buildItem) bool { return a.lessBit(b) != 0 }

// up and down are the standard library heap package's, typed and in
// place: the same comparisons in the same order, so equal weights leave the
// heap in the order they always did and the code lengths — which depend on
// it — are the ones heap.Init/Pop/Push produced. down holds the sinking
// item aside and writes it once where the library's chain of swaps would
// leave it.
func up(h []buildItem, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h[j].less(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func down(h []buildItem, i int) {
	if i >= len(h) {
		return // popping the last item leaves nothing to sift
	}
	x := h[i]
	for j := 2*i + 1; j < len(h); j = 2*i + 1 { // left child
		if j+1 < len(h) {
			j += int(h[j+1].lessBit(h[j])) // right child, if it is the smaller
		}
		if !h[j].less(x) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}

// pop removes and returns the least item of the n-item heap (heap.Pop).
func pop(h []buildItem, n int) buildItem {
	h[0], h[n-1] = h[n-1], h[0]
	down(h[:n-1], 0)
	return h[n-1]
}

// BuildLengths computes Huffman code lengths for the given symbol
// frequencies, limited to maxBits. Symbols with zero frequency get length
// zero (no code). If only one symbol has nonzero frequency it is assigned
// length 1, matching DEFLATE's requirement that every used code be at
// least one bit.
//
// If the unconstrained Huffman tree exceeds maxBits, lengths are flattened
// with the standard overflow-repair pass (the same approach zlib uses),
// preserving the Kraft inequality so the result is always a valid prefix
// code.
func BuildLengths(freqs []int64, maxBits int) ([]uint8, error) {
	var b Builder
	lengths := make([]uint8, len(freqs))
	if err := b.Lengths(lengths, freqs, maxBits); err != nil {
		return nil, err
	}
	return lengths, nil
}

// Lengths is BuildLengths into the caller's lengths[:len(freqs)], with no
// allocation. Alphabets are limited to MaxSymbols.
func (b *Builder) Lengths(lengths []uint8, freqs []int64, maxBits int) error {
	if maxBits < 1 || maxBits > 32 {
		return fmt.Errorf("huffman: maxBits %d out of range", maxBits)
	}
	if len(freqs) > MaxSymbols {
		return fmt.Errorf("huffman: %d symbols exceed the %d a table can have", len(freqs), MaxSymbols)
	}
	lengths = lengths[:len(freqs)]
	clear(lengths)
	live := 0
	for i, f := range freqs {
		if f < 0 {
			return fmt.Errorf("huffman: negative frequency for symbol %d", i)
		}
		if f > 0 {
			b.heap[live] = buildItem{weight: f, node: int32(live)}
			live++
		}
	}
	switch live {
	case 0:
		return nil
	case 1:
		for i, f := range freqs {
			if f > 0 {
				lengths[i] = 1
			}
		}
		return nil
	}
	if live > (1 << maxBits) {
		return fmt.Errorf("huffman: %d symbols cannot fit in %d bits", live, maxBits)
	}

	h := b.heap[:live]
	for i := live/2 - 1; i >= 0; i-- { // heap.Init
		down(h, i)
	}
	next := int32(live) // next internal node
	for n := live; n > 1; n-- {
		x := pop(h, n)
		y := pop(h, n-1)
		b.node[x.node], b.node[y.node] = uint16(next), uint16(next)
		h[n-2] = buildItem{weight: x.weight + y.weight, height: max(x.height, y.height) + 1, node: next}
		up(h[:n-1], n-2) // heap.Push
		next++
	}
	// Depths from the root (the last node made) down: every parent is done
	// before its children.
	root := int(next) - 1
	b.node[root] = 0
	for i := root - 1; i >= 0; i-- {
		b.node[i] = b.node[b.node[i]] + 1
	}
	leaf := 0
	for i, f := range freqs {
		if f > 0 {
			lengths[i] = uint8(b.node[leaf])
			leaf++
		}
	}
	b.repairOverflow(lengths, freqs, maxBits)
	return nil
}

// repairOverflow caps code lengths at maxBits and restores the Kraft
// equality by demoting the least-frequent short codes.
func (b *Builder) repairOverflow(lengths []uint8, freqs []int64, maxBits int) {
	overflow := false
	for _, l := range lengths {
		if int(l) > maxBits {
			overflow = true
			break
		}
	}
	if !overflow {
		return
	}
	// Count codes per length, clamping.
	var counts [33]int
	for i, l := range lengths {
		if l == 0 {
			continue
		}
		if int(l) > maxBits {
			lengths[i] = uint8(maxBits)
		}
		counts[lengths[i]]++
	}
	// Kraft sum in units of 2^-maxBits.
	kraft := 0
	for l := 1; l <= maxBits; l++ {
		kraft += counts[l] << (maxBits - l)
	}
	limit := 1 << maxBits
	// While over-subscribed, move one code from the deepest under-limit
	// level down a level and promote one maxBits code as its sibling; the
	// Kraft sum drops by exactly 1 per step (zlib's gen_bitlen repair).
	for kraft > limit {
		l := maxBits - 1
		for counts[l] == 0 {
			l--
		}
		counts[l]--
		counts[l+1] += 2
		counts[maxBits]--
		kraft--
	}
	// Reassign lengths to symbols: sort live symbols by frequency ascending
	// so the least frequent get the longest codes, then deal lengths from
	// longest to shortest according to counts. (Frequency, symbol) is a
	// total order, so which sort runs cannot change the outcome.
	live := b.heap[:0]
	for i, l := range lengths {
		if l != 0 {
			live = append(live, buildItem{weight: freqs[i], node: int32(i)})
		}
	}
	slices.SortFunc(live, func(x, y buildItem) int {
		return cmp.Or(cmp.Compare(x.weight, y.weight), cmp.Compare(x.node, y.node))
	})
	li := 0
	for l := maxBits; l >= 1; l-- {
		for c := 0; c < counts[l]; c++ {
			lengths[live[li].node] = uint8(l)
			li++
		}
	}
}

// KraftSum returns the Kraft-inequality sum of the code lengths in units
// of 2^-maxBits; a complete prefix code sums to exactly 1<<maxBits, and any
// valid prefix code sums to at most that.
func KraftSum(lengths []uint8, maxBits int) int {
	sum := 0
	for _, l := range lengths {
		if l == 0 {
			continue
		}
		sum += 1 << (maxBits - int(l))
	}
	return sum
}
