package nxzip

// pooled.go is the allocation-free one-shot request path. The queued
// submission protocol was already cheap in work — one paste, one FIFO
// round — but every request minted a CRB, a CSB, a Report, a Metrics, an
// output buffer, and a pair of fresh VA mappings. At small payloads that
// garbage, not the engine, sets the request rate. The request pipeline
// (request.go) pools the request blocks (a free list) and reuses VA spans
// through the context arena (Context.AcquireVA/ReleaseVA); the entry
// points here thread caller-owned destination buffers through CRB.Target
// so a steady-state request touches the allocator zero times.
//
// Aliasing rules: the pooled blocks never escape — CompressGzipInto and
// friends return bytes backed by the *caller's* dst (or a grown
// replacement of it), and the copying wrappers (CompressGzip et al.)
// return an exact-size copy while the scratch backing stays in the pool.
// Nothing handed to the caller is ever put back in a pool.

// CompressGzipInto compresses src into a gzip stream appended to
// dst[:0], returning the frame. The result aliases dst unless the frame
// outran cap(dst), in which case it is backed by a grown replacement —
// standard append semantics, so always use the returned slice. With
// TableFixed or TableCanned and an adequately sized dst, the steady
// state allocates nothing (TableDynamic samples a per-request Huffman
// table and therefore allocates; the software-fallback and re-dispatch
// error paths allocate freely). A nil m discards the accounting.
func (a *Accelerator) CompressGzipInto(dst, src []byte, m *Metrics) ([]byte, error) {
	return a.compressInto(FormatGzip, dst, src, m)
}

// CompressZlibInto is CompressGzipInto with zlib framing.
func (a *Accelerator) CompressZlibInto(dst, src []byte, m *Metrics) ([]byte, error) {
	return a.compressInto(FormatZlib, dst, src, m)
}

// DecompressGzipInto inflates a (single-member) gzip stream into
// dst[:0] with the same append semantics as CompressGzipInto. The
// output bound is the larger of the DecompressGzip heuristic and
// cap(dst); pass an adequately sized dst both for the bound you want
// and for the zero-allocation steady state. All of cap(dst) belongs to
// the call: the decoder stores 8-byte words, so up to 7 bytes past the
// returned length may be overwritten (never anything past cap(dst)).
// To decode into a window of a shared buffer, fence it with a
// three-index slice: big[off:off:end].
func (a *Accelerator) DecompressGzipInto(dst, src []byte, m *Metrics) ([]byte, error) {
	return a.decompressInto(FormatGzip, dst, src, m)
}

// DecompressZlibInto is DecompressGzipInto for zlib streams.
func (a *Accelerator) DecompressZlibInto(dst, src []byte, m *Metrics) ([]byte, error) {
	return a.decompressInto(FormatZlib, dst, src, m)
}

func (a *Accelerator) compressInto(f Format, dst, src []byte, m *Metrics) ([]byte, error) {
	return a.do(a.nctx, nil, op{kind: opCompress, name: "compress", format: f, src: src, dst: dst}, m)
}

func (a *Accelerator) decompressInto(f Format, dst, src []byte, m *Metrics) ([]byte, error) {
	return a.do(a.nctx, nil, op{kind: opDecompress, name: "decompress", format: f, src: src, dst: dst,
		maxOutput: max(defaultMaxOutput(len(src)), cap(dst))}, m)
}
