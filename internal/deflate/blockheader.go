package deflate

import (
	"fmt"

	"nxzip/internal/bitio"
	"nxzip/internal/huffman"
)

// BlockHeader is the parsed header of one DEFLATE block, exposed for the
// speculative-decode study behind ablation A6 (internal/experiments),
// which needs the symbol decoders and the payload bit position to analyze
// lane synchronization.
type BlockHeader struct {
	Final  bool
	Type   int // 0 stored, 1 fixed, 2 dynamic
	LitLen *huffman.Decoder
	Dist   *huffman.Decoder
}

// ReadBlockHeader parses a block header from r, leaving r positioned at
// the first payload bit (or the first stored byte).
func ReadBlockHeader(r *bitio.Reader) (*BlockHeader, error) {
	final, err := r.ReadBool()
	if err != nil {
		return nil, fmt.Errorf("%w: missing block header", ErrCorrupt)
	}
	btype, err := r.ReadBits(2)
	if err != nil {
		return nil, fmt.Errorf("%w: missing block type", ErrCorrupt)
	}
	h := &BlockHeader{Final: final, Type: int(btype)}
	switch btype {
	case 0:
		r.AlignByte()
		return h, nil
	case 1:
		h.LitLen, h.Dist = &fixedLitLen, &fixedDist
		return h, nil
	case 2:
		in := new(inflater) // the header keeps the tables: not pooled
		if err := in.readDynamicHeader(r); err != nil {
			return nil, err
		}
		h.LitLen, h.Dist = &in.litLen, &in.dist
		return h, nil
	}
	return nil, errReservedType
}
