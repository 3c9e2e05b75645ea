package huffman

import (
	"cmp"
	"fmt"
	"slices"
)

// BuildLengthsOptimal computes *optimal* length-limited Huffman code
// lengths with the package-merge algorithm (Larmore & Hirschberg 1990).
//
// BuildLengths uses the zlib-style overflow repair, which is what cheap
// hardware table generators implement: build the unconstrained tree, clamp,
// and re-balance. Package-merge is provably optimal under the limit but
// needs O(n·maxBits) sorted merges — more area/latency than a DHT
// generator wants to spend. Ablation A9 measures how little ratio the
// heuristic actually gives up, which is exactly why the hardware can
// afford it.
func BuildLengthsOptimal(freqs []int64, maxBits int) ([]uint8, error) {
	if maxBits < 1 || maxBits > 32 {
		return nil, fmt.Errorf("huffman: maxBits %d out of range", maxBits)
	}
	n := len(freqs)
	lengths := make([]uint8, n)
	type item struct {
		sym  int
		freq int64
	}
	var live []item
	for i, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("huffman: negative frequency for symbol %d", i)
		}
		if f > 0 {
			live = append(live, item{i, f})
		}
	}
	switch len(live) {
	case 0:
		return lengths, nil
	case 1:
		lengths[live[0].sym] = 1
		return lengths, nil
	}
	if len(live) > 1<<maxBits {
		return nil, fmt.Errorf("huffman: %d symbols cannot fit in %d bits", len(live), maxBits)
	}
	slices.SortFunc(live, func(a, b item) int {
		return cmp.Or(cmp.Compare(a.freq, b.freq), cmp.Compare(a.sym, b.sym))
	})

	// node is a coin in package-merge: either an original symbol (leaf)
	// or a package of two nodes from the previous level.
	type node struct {
		weight int64
		// count[i] tallies how many times leaf i (index into live)
		// participates in this package. To keep memory sane we track leaf
		// multiplicity via child pointers instead.
		left, right *node
		leaf        int // index into live, -1 for packages
	}
	mkLeafRow := func() []*node {
		row := make([]*node, len(live))
		for i, it := range live {
			row[i] = &node{weight: it.freq, leaf: i}
		}
		return row
	}

	// Level by level: prev = packages+leaves of level l+1 merged pairwise,
	// each level also contains all original leaves.
	prev := mkLeafRow()
	for level := 1; level < maxBits; level++ {
		var packages []*node
		for i := 0; i+1 < len(prev); i += 2 {
			packages = append(packages, &node{
				weight: prev[i].weight + prev[i+1].weight,
				left:   prev[i], right: prev[i+1],
				leaf: -1,
			})
		}
		leaves := mkLeafRow()
		merged := make([]*node, 0, len(packages)+len(leaves))
		li, pi := 0, 0
		for li < len(leaves) || pi < len(packages) {
			switch {
			case pi >= len(packages):
				merged = append(merged, leaves[li])
				li++
			case li >= len(leaves):
				merged = append(merged, packages[pi])
				pi++
			case leaves[li].weight <= packages[pi].weight:
				merged = append(merged, leaves[li])
				li++
			default:
				merged = append(merged, packages[pi])
				pi++
			}
		}
		prev = merged
	}

	// Take the first 2(n-1) items of the final row; each leaf occurrence
	// adds one bit to that symbol's length.
	take := 2 * (len(live) - 1)
	if take > len(prev) {
		return nil, fmt.Errorf("huffman: package-merge underflow (%d of %d)", take, len(prev))
	}
	depth := make([]int, len(live))
	var count func(nd *node)
	count = func(nd *node) {
		if nd.leaf >= 0 {
			depth[nd.leaf]++
			return
		}
		count(nd.left)
		count(nd.right)
	}
	for i := 0; i < take; i++ {
		count(prev[i])
	}
	for i, d := range depth {
		if d < 1 || d > maxBits {
			return nil, fmt.Errorf("huffman: package-merge produced depth %d for symbol %d", d, live[i].sym)
		}
		lengths[live[i].sym] = uint8(d)
	}
	if k := KraftSum(lengths, maxBits); k != 1<<maxBits {
		return nil, fmt.Errorf("huffman: package-merge kraft %d != %d", k, 1<<maxBits)
	}
	return lengths, nil
}
