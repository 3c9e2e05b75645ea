// Package x842 implements the IBM 842 compression format, the second
// engine in the POWER NX accelerator (used by AIX/Linux for active memory
// expansion and zswap). 842 trades ratio for extreme simplicity: input is
// processed in 8-byte phrases, each encoded by a 5-bit template that mixes
// literal data with short back-references into small ring buffers
// ("fifos") of recently seen 2-, 4- and 8-byte chunks.
//
// The format follows the Linux kernel's software 842 implementation
// (lib/842): 26 data templates plus OP_REPEAT, OP_ZEROS, OP_SHORT_DATA and
// OP_END, an MSB-first bit stream, and ring-buffer index semantics with
// fifo sizes of 512/2048/2048 bytes for 2/4/8-byte chunks.
//
// Decompress fails in two ways a caller can tell apart with errors.Is:
// ErrTooLarge when a well-formed stream would decode past the output
// budget, ErrCorrupt for everything else. A stream that ends inside an
// operation wraps ErrTruncated as well as ErrCorrupt, so a caller holding
// a partial stream can tell "need more bytes" from "bad bytes".
package x842

import "errors"

// Stream opcodes (5 bits). 0x00..0x19 are data templates; the rest are
// control operations.
const (
	opRepeat    = 0x1B // repeat previous 8-byte phrase, 6-bit count
	opZeros     = 0x1C // eight zero bytes
	opShortData = 0x1D // 3-bit count, then count literal bytes (tail)
	opEnd       = 0x1E // end of stream

	opBits        = 5
	repeatBits    = 6
	shortDataBits = 3
	maxRepeat     = 1 << repeatBits
)

// Template actions.
const (
	actD8 = iota // 64 bits of literal data
	actD4        // 32 bits of literal data
	actD2        // 16 bits of literal data
	actI2        // 8-bit index into the 2-byte fifo
	actI4        // 9-bit index into the 4-byte fifo
	actI8        // 8-bit index into the 8-byte fifo
	actN0        // no action (template padding)
)

// action bit costs and chunk sizes.
var (
	actionBits  = [7]uint{64, 32, 16, 8, 9, 8, 0}
	actionBytes = [7]int{8, 4, 2, 2, 4, 8, 0}
)

// fifo geometry: entries * chunk size = window bytes.
const (
	i2Bits, i4Bits, i8Bits = 8, 9, 8
	fifo2Size              = (1 << i2Bits) * 2 // 512 B
	fifo4Size              = (1 << i4Bits) * 4 // 2048 B
	fifo8Size              = (1 << i8Bits) * 8 // 2048 B
)

// templates maps opcode -> four actions, in phrase order. This is the
// table from the 842 specification (and lib/842/842.h).
var templates = [26][4]uint8{
	{actD8, actN0, actN0, actN0}, // 0x00
	{actD4, actD2, actI2, actN0}, // 0x01
	{actD4, actI2, actD2, actN0}, // 0x02
	{actD4, actI2, actI2, actN0}, // 0x03
	{actD4, actI4, actN0, actN0}, // 0x04
	{actD2, actI2, actD4, actN0}, // 0x05
	{actD2, actI2, actD2, actI2}, // 0x06
	{actD2, actI2, actI2, actD2}, // 0x07
	{actD2, actI2, actI2, actI2}, // 0x08
	{actD2, actI2, actI4, actN0}, // 0x09
	{actI2, actD2, actD4, actN0}, // 0x0A
	{actI2, actD4, actI2, actN0}, // 0x0B
	{actI2, actD2, actI2, actD2}, // 0x0C
	{actI2, actD2, actI2, actI2}, // 0x0D
	{actI2, actD2, actI4, actN0}, // 0x0E
	{actI2, actI2, actD4, actN0}, // 0x0F
	{actI2, actI2, actD2, actI2}, // 0x10
	{actI2, actI2, actI2, actD2}, // 0x11
	{actI2, actI2, actI2, actI2}, // 0x12
	{actI2, actI2, actI4, actN0}, // 0x13
	{actI4, actD4, actN0, actN0}, // 0x14
	{actI4, actD2, actI2, actN0}, // 0x15
	{actI4, actI2, actD2, actN0}, // 0x16
	{actI4, actI2, actI2, actN0}, // 0x17
	{actI4, actI4, actN0, actN0}, // 0x18
	{actI8, actN0, actN0, actN0}, // 0x19
}

// The table is a product. Each 4-byte half of a phrase is coded one of
// five ways, and opcodes 0x00..0x18 are 5*first + second over them in this
// order (0x00, D8, is D4 D4: the same 64 bits); 0x19 is the whole phrase
// as one I8. Both kernels work a half at a time on this;
// TestTemplateTableConsistency holds it to the table above.
const (
	halfD4   = iota // 32 literal bits
	halfD2I2        // 16 literal bits, 8-bit index
	halfI2D2        // 8-bit index, 16 literal bits
	halfI2I2        // two 8-bit indices
	halfI4          // 9-bit index
	halfWays
	opI8 = halfWays * halfWays // 0x19
)

var halfBits = [halfWays]uint{32, 24, 24, 16, 9}

// opLen is each operation's length in bits, opcode included; for
// OP_SHORT_DATA, up to its count.
var opLen = func() (n [1 << opBits]uint8) {
	for op := range n {
		n[op] = opBits
		if op < len(templates) {
			for _, a := range templates[op] {
				n[op] += uint8(actionBits[a])
			}
		}
	}
	n[opRepeat] += repeatBits
	n[opShortData] += shortDataBits
	return n
}()

// Errors Decompress wraps; see the package comment.
var (
	ErrCorrupt   = errors.New("x842: corrupt stream")
	ErrTruncated = errors.New("x842: truncated stream")
	ErrTooLarge  = errors.New("x842: output exceeds the budget")
)
