// Package nx is the core of the reproduction: a functional and
// cycle-approximate model of the POWER9 NX GZIP unit and the z15
// Integrated Accelerator for zEDC. It executes real DEFLATE (and 842)
// work — the bytes it produces interoperate with zlib/gzip — while
// charging cycles from the pipeline model, translating addresses through
// the NMMU, and accepting requests through VAS windows, so the system-level
// behaviour the paper evaluates (latency vs size, faults, sharing) is
// observable.
package nx

import (
	"errors"
	"fmt"
	"time"

	"nxzip/internal/deflate"
	"nxzip/internal/lz77"
	"nxzip/internal/pipeline"
	"nxzip/internal/telemetry"
)

// FuncCode selects the engine operation, mirroring the NX function codes.
type FuncCode int

const (
	// FCCompressFHT compresses with the fixed Huffman table.
	FCCompressFHT FuncCode = iota
	// FCCompressDHT compresses with an engine-generated dynamic table
	// (single pass: the table is built from a sample of the input).
	FCCompressDHT
	// FCCompressCannedDHT compresses with a caller-supplied table.
	FCCompressCannedDHT
	// FCDecompress inflates a DEFLATE stream.
	FCDecompress
	// FC842Compress compresses with the 842 engine.
	FC842Compress
	// FC842Decompress decompresses 842 data.
	FC842Decompress
	// FCMove copies source to target computing CRC32/Adler-32 inline
	// without compressing — the engine's checksum/memcpy offload.
	FCMove
	// FCLZ4Compress compresses with the LZ4 block engine.
	FCLZ4Compress
	// FCLZ4Decompress decompresses an LZ4 block.
	FCLZ4Decompress
	// FCTranscode decodes CRB.SourceCodec input and re-encodes it as
	// CRB.TargetCodec in one engine pass (DEFLATE output framed per
	// CRB.Wrap) — the recompression pipeline as a single node request.
	FCTranscode
)

func (f FuncCode) String() string {
	switch f {
	case FCCompressFHT:
		return "compress-fht"
	case FCCompressDHT:
		return "compress-dht"
	case FCCompressCannedDHT:
		return "compress-canned"
	case FCDecompress:
		return "decompress"
	case FC842Compress:
		return "842-compress"
	case FC842Decompress:
		return "842-decompress"
	case FCMove:
		return "move"
	case FCLZ4Compress:
		return "lz4-compress"
	case FCLZ4Decompress:
		return "lz4-decompress"
	case FCTranscode:
		return "transcode"
	}
	return fmt.Sprintf("FuncCode(%d)", int(f))
}

// Wrap selects stream framing applied inline by the engine.
type Wrap int

const (
	// WrapRaw emits/consumes a bare DEFLATE stream.
	WrapRaw Wrap = iota
	// WrapGzip emits/consumes RFC 1952 framing with CRC32.
	WrapGzip
	// WrapZlib emits/consumes RFC 1950 framing with Adler-32.
	WrapZlib
)

func (w Wrap) String() string {
	switch w {
	case WrapRaw:
		return "raw"
	case WrapGzip:
		return "gzip"
	case WrapZlib:
		return "zlib"
	}
	return fmt.Sprintf("Wrap(%d)", int(w))
}

// CC is the CSB completion code.
type CC int

const (
	// CCSuccess: operation completed.
	CCSuccess CC = iota
	// CCTranslationFault: a source/target page was not translatable; the
	// faulting address is in CSB.FaultVA. Software touches the page and
	// resubmits.
	CCTranslationFault
	// CCTargetSpace: the output exceeded the target buffer.
	CCTargetSpace
	// CCDataCorrupt: decompression found an invalid stream or checksum.
	CCDataCorrupt
	// CCInvalidCRB: malformed request.
	CCInvalidCRB
	// CCCRCError: the engine's inline read-back verify found a CRC
	// mismatch between what was written and what was computed — a
	// transient data-path flake, not a property of the input, so software
	// retries the request (usually on another device).
	CCCRCError

	// ccCount sizes per-CC counter arrays.
	ccCount
)

func (c CC) String() string {
	switch c {
	case CCSuccess:
		return "success"
	case CCTranslationFault:
		return "translation-fault"
	case CCTargetSpace:
		return "target-space-exhausted"
	case CCDataCorrupt:
		return "data-corrupt"
	case CCInvalidCRB:
		return "invalid-crb"
	case CCCRCError:
		return "crc-error"
	}
	return fmt.Sprintf("CC(%d)", int(c))
}

// Typed errors for every non-OK completion code, so callers can sort
// retryable from fatal completions with errors.Is instead of parsing
// messages. Compress/Decompress/submit wrap these (with the CSB detail
// string) into the errors they return.
var (
	// ErrTranslationFault is normally consumed by the touch-and-resubmit
	// protocol; it surfaces only when the fault handler itself fails.
	ErrTranslationFault = errors.New("nx: translation fault")
	// ErrTargetSpace: output exceeded the target buffer. Retryable with
	// a larger buffer (the grow-and-resubmit loop), fatal as-is.
	ErrTargetSpace = errors.New("nx: target buffer space exhausted")
	// ErrDataCorrupt: the stream failed to decode or checksum. Fatal for
	// a genuinely corrupt input; a fault-injected data check on intact
	// input is indistinguishable here, which is why the fallback layer
	// re-verifies in software before reporting corruption.
	ErrDataCorrupt = errors.New("nx: data corrupt")
	// ErrInvalidCRB: malformed request. Fatal — resubmitting the same
	// block cannot succeed (an injected flake is the one exception the
	// failover layer absorbs by rebuilding the request elsewhere).
	ErrInvalidCRB = errors.New("nx: invalid CRB")
	// ErrCRCMismatch: inline verify failed. Retryable.
	ErrCRCMismatch = errors.New("nx: crc mismatch")
)

// Err maps a completion code to its typed error (nil for CCSuccess).
func (c CC) Err() error {
	switch c {
	case CCSuccess:
		return nil
	case CCTranslationFault:
		return ErrTranslationFault
	case CCTargetSpace:
		return ErrTargetSpace
	case CCDataCorrupt:
		return ErrDataCorrupt
	case CCInvalidCRB:
		return ErrInvalidCRB
	case CCCRCError:
		return ErrCRCMismatch
	}
	return fmt.Errorf("nx: unknown completion code %d", int(c))
}

// ccError wraps a non-OK completion into a typed, errors.Is-able error
// carrying the human-readable CSB detail.
func ccError(op string, csb *CSB) error {
	err := csb.CC.Err()
	if err == nil {
		return nil
	}
	if csb.Detail != "" {
		return fmt.Errorf("nx: %s: %w: %s", op, err, csb.Detail)
	}
	return fmt.Errorf("nx: %s: %w", op, err)
}

// CRB is the coprocessor request block: one self-describing request.
// Payload data travels as Go slices (the model's stand-in for DMA), while
// SourceVA/TargetVA drive the translation model; a zero VA means the
// buffer is pre-pinned (kernel use) and skips translation.
type CRB struct {
	Func FuncCode
	Wrap Wrap

	// SourceCodec/TargetCodec select the two sides of an FCTranscode
	// request: Input is a SourceCodec stream (framed per Wrap when
	// DEFLATE), Output a TargetCodec stream. Ignored by every other
	// function code, whose codec comes from the function-code table.
	SourceCodec Codec
	TargetCodec Codec

	// ReqID is the root-level request identity stamped by the public API:
	// every span and event this submission produces carries it, across
	// failover re-dispatches and fault resubmits, so the whole history of
	// one caller-visible request links up. Zero when unset (internal
	// traffic, raw Context users).
	ReqID uint64
	// Hop is the dispatch attempt ordinal under ReqID: 0 for the original
	// dispatch, 1.. for failover re-dispatches to other devices.
	Hop int
	// Spans, when non-nil, is the submitter's own span storage: each
	// dispatch of this CRB records its span there, whether or not a tracer
	// is installed, so a caller that keeps a request's history pays no
	// allocation and no lock for it.
	Spans *telemetry.SpanLog

	Input     []byte
	SourceVA  uint64
	TargetVA  uint64
	TargetCap int // output bound; 0 means 2x input + 1 KiB

	// SourceDDE/TargetDDE describe scatter/gathered operands; when set
	// they take precedence over SourceVA/TargetVA for translation. Input
	// still carries the logical (gathered) bytes — see GatherDDE.
	SourceDDE *DDE
	TargetDDE *DDE

	// DHT supplies the canned table for FCCompressCannedDHT.
	DHT *deflate.DHT

	// History carries the previous 32 KiB of the logical stream for
	// compression continuation: matches may reach into it and the engine
	// replays it through the LZ stage (costing input beats). Only
	// meaningful for the compression function codes.
	History []byte
	// NotFinal marks this request as a non-terminal stream segment: the
	// engine emits a non-final block followed by a sync flush so segment
	// outputs concatenate into one valid DEFLATE stream. Streaming
	// segments must use WrapRaw; framing belongs to the stream owner.
	NotFinal bool

	// Target, when non-nil, is the caller-owned output backing: the
	// engine appends into Target[:0] and CSB.Output aliases it (or a
	// regrown copy when the result outgrew cap(Target) — recover the
	// larger backing from CSB.Output). This is the model's target DMA
	// buffer: supplying it makes the request path allocation-free.
	// Callers reusing Target across requests must copy CSB.Output out
	// before the next submission, and Target must not alias Input.
	// Like a DDE, the whole buffer is the engine's for the request:
	// decompression stores 8-byte words, so up to 7 bytes past TPBC may
	// be overwritten — never past cap(Target) nor past TargetCap. Fence
	// a window of a shared buffer with TargetCap or a three-index slice.
	// Nil keeps the engine-allocates behaviour.
	Target []byte

	// MaxOutput bounds decompression output (guards zip bombs); 0 = 1 GiB.
	MaxOutput int

	// FirstMemberOnly, with FCDecompress+WrapGzip, stops after the first
	// gzip member instead of requiring Input to be exactly one member:
	// SPBC reports the bytes consumed (header + stream + trailer) so the
	// caller can advance through a multi-member stream decoding each
	// member exactly once — the CSB's source-processed count doing the
	// job it does on hardware.
	FirstMemberOnly bool

	// DecompState carries decompression resume state across requests
	// (FCDecompress with streaming input). When set, Input is the next
	// chunk of one logical raw DEFLATE stream and NotFinal marks
	// intermediate chunks.
	DecompState *DecompState

	// SyncSubmit marks a request entered through the synchronous
	// instruction interface (z15 DFLTCC style): the CPU issues the
	// operation and waits, skipping the VAS queue and its setup cost.
	// Only honoured on devices whose pipeline has SyncSetupCycles > 0.
	SyncSubmit bool

	// Chained marks a request that arrived behind another in the same
	// batch envelope: the descriptor was already resident when the engine
	// reached it, so setup costs ChainSetupCycles instead of the full
	// paste-to-dispatch SetupCycles. ChainedComplete marks a request
	// whose envelope completion is carried by a later entry: the CSB
	// store happens, but the interrupt/credit return is deferred, so
	// completion costs ChainCompleteCycles. SubmitBatch sets both; they
	// are only honoured on devices whose pipeline defines the chained
	// costs.
	Chained         bool
	ChainedComplete bool

	// Deadline, when non-zero, bounds this request's wall-clock
	// lifetime: paste retries, backoff waits and fault-resubmit rounds
	// all check it, and submission fails with ErrDeadlineExceeded once it
	// passes. Zero applies the device's SubmitPolicy.Timeout (if any).
	Deadline time.Time
	// Cancel, when non-nil, aborts the request between recovery rounds
	// when the channel closes (submission fails with ErrCanceled). A
	// round already running on the engine completes; cancellation is
	// checked at the same points as Deadline.
	Cancel <-chan struct{}
}

// CSB is the coprocessor status block written back at completion.
type CSB struct {
	CC      CC
	FaultVA uint64

	SPBC int // source processed byte count
	TPBC int // target processed byte count

	CRC32   uint32 // over the uncompressed data (gzip direction)
	Adler32 uint32 // over the uncompressed data (zlib direction)

	Output []byte

	Cycles pipeline.Breakdown
	// ERATHits/ERATMisses split this request's translation work (pages
	// resolved from the ERAT vs table walks, the faulting page included in
	// the misses). Carried per-CSB like LZ so concurrent submitters never
	// read another request's counters.
	ERATHits   int64
	ERATMisses int64
	// LZ reports the match-search statistics of this request (compression
	// function codes only). Carried per-CSB so concurrent submitters never
	// read another request's counters.
	LZ lz77.HWStats
	// QueueWait is the request's receive-FIFO residency (paste accept to
	// dequeue) for the attempt that produced this completion — the raw
	// sample behind the nx.queue_wait_us histogram, surfaced per-CSB so
	// the flight recorder can digest it without a registry read.
	QueueWait time.Duration
	Detail    string // human-readable error detail for corrupt data
}

// reset clears a status block for reuse before the engine writes a fresh
// completion into it (the hardware overwrites the CSB cacheline whole).
func (csb *CSB) reset() { *csb = CSB{} }
