package experiments

// specdec.go measures what sizes a speculative, multi-lane Huffman
// decoder, the basis of ablation A6.
//
// DEFLATE decoding is inherently serial — each variable-length codeword's
// position depends on all previous lengths — which caps a naive decoder at
// one symbol per cycle. A hardware decoder exploits Huffman
// *self-synchronization*: a decoder that starts at a wrong bit offset
// usually re-aligns with the true codeword grid within a few symbols. N
// lanes decode N consecutive segments concurrently; lane k starts blind at
// its segment's first bit, and once lane k-1 reaches lane k's segment, the
// speculative work from the first self-synchronized boundary onward is
// valid and everything before it is replayed serially. Measured on real
// blocks: how often a blind start synchronizes, how far it runs first, and
// the resulting speedup for a lane count and segment size — what justifies
// the DecodeBytesPerCycle constants of the pipeline model.

import (
	"errors"
	"fmt"

	"nxzip/internal/bitio"
	"nxzip/internal/deflate"
)

// syncAnalysis aggregates a block's speculative-decode behaviour.
type syncAnalysis struct {
	Trials       int
	SyncRate     float64 // fraction of blind starts that synchronize
	MeanSyncBits float64 // mean bits to synchronization (synced trials)
}

// analyzeSync takes a raw single-block DEFLATE stream (from
// deflate.EncodeTokens) and starts a speculative decode at every
// stride-th bit offset of its payload (13 when stride <= 0: an odd stride
// samples all bit phases).
func analyzeSync(stream []byte, stride int) (*syncAnalysis, error) {
	if stride <= 0 {
		stride = 13
	}
	r := bitio.NewReader(stream)
	h, err := deflate.ReadBlockHeader(r)
	if err != nil {
		return nil, err
	}
	if h.Type == 0 {
		return nil, errors.New("specdec: stored blocks have no codeword grid")
	}
	headerBits := r.BitsConsumed()
	// The true decode: every symbol's starting bit offset.
	starts := make(map[int]bool)
	endBit := 0
	for endBit == 0 {
		starts[r.BitsConsumed()] = true
		sym, err := decodeSymbol(r, h)
		if err != nil {
			return nil, fmt.Errorf("specdec: trace: %w", err)
		}
		if sym == deflate.EndOfBlock {
			endBit = r.BitsConsumed()
		}
	}

	an := &syncAnalysis{}
	var synced, sumBits float64
	for start := headerBits + 1; start < endBit-16; start += stride {
		if starts[start] {
			continue // already aligned; speculation trivially correct
		}
		an.Trials++
		if bits, ok := speculateFrom(stream, h, starts, endBit, start); ok {
			synced++
			sumBits += float64(bits)
		}
	}
	if an.Trials > 0 {
		an.SyncRate = synced / float64(an.Trials)
	}
	if synced > 0 {
		an.MeanSyncBits = sumBits / synced
	}
	return an, nil
}

// decodeSymbol reads one literal/length symbol and, for a match, the
// extra-length bits, distance code and extra distance bits behind it.
func decodeSymbol(r *bitio.Reader, h *deflate.BlockHeader) (int, error) {
	sym, err := h.LitLen.Decode(r)
	if err != nil || sym <= deflate.EndOfBlock {
		return sym, err
	}
	_, nb, ok := deflate.LengthFromSymbol(sym)
	if !ok {
		return 0, errors.New("specdec: bad length symbol")
	}
	if _, err := r.ReadBits(uint(nb)); err != nil {
		return 0, err
	}
	dsym, err := h.Dist.Decode(r)
	if err != nil {
		return 0, err
	}
	_, dnb, ok := deflate.DistFromSymbol(dsym)
	if !ok {
		return 0, errors.New("specdec: bad dist symbol")
	}
	_, err = r.ReadBits(uint(dnb))
	return sym, err
}

// speculateFrom runs one blind lane from startBit and reports how many
// bits it decoded before landing on a true symbol start; a lane that hits
// an invalid code, the end of the block or 4096 symbols never syncs.
func speculateFrom(stream []byte, h *deflate.BlockHeader, starts map[int]bool, endBit, startBit int) (int, bool) {
	r := bitio.NewReader(stream)
	if err := r.SkipBits(uint(startBit)); err != nil {
		return 0, false
	}
	for n := 0; n < 4096; n++ {
		pos := r.BitsConsumed()
		if pos >= endBit {
			return 0, false
		}
		if starts[pos] {
			return pos - startBit, true
		}
		if sym, err := decodeSymbol(r, h); err != nil || sym == deflate.EndOfBlock {
			return 0, false
		}
	}
	return 0, false
}

// Speedup estimates the effective decode speedup of an N-lane decoder
// with the given segment size in bits, from the measured sync behaviour:
// lane 0 is always useful; each other lane contributes its segment minus
// the expected resynchronization prefix (which lane k-1 must re-decode
// serially), and an unsynchronized lane contributes nothing.
func (a *syncAnalysis) Speedup(lanes, segmentBits int) float64 {
	if lanes <= 1 || a.Trials == 0 {
		return 1
	}
	useful := float64(segmentBits) // lane 0
	for k := 1; k < lanes; k++ {
		if gain := a.SyncRate * (float64(segmentBits) - a.MeanSyncBits); gain > 0 {
			useful += gain
		}
	}
	return useful / float64(segmentBits)
}
