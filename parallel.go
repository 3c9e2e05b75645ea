package nxzip

import (
	"io"

	"nxzip/internal/topology"
)

// DefaultParallelWorkers is the worker count NewParallelWriter uses.
// Matches the POWER9 software stack's default of a handful of windows
// per process; raise it together with Config.Device.Engines to model
// deeper submission pipelines.
const DefaultParallelWorkers = 4

// ParallelWriter is the host-side analogue of multi-window VAS paste: it
// compresses up to W chunks concurrently, each through its own VAS send
// window (one per worker, all in the caller's address space), and emits
// the resulting gzip members in original order, so the output is
// byte-identical to the serial Writer's. This is how the paper's
// throughput claims are reached in practice — not by making one request
// faster, but by keeping many requests in flight against the shared
// receive FIFO (claims C2/C3/C6, experiment E6/E9).
//
// Write and Close must be called from one goroutine; the concurrency is
// internal to a call. Chunks run side by side once the Writes hold one for
// every worker, and every member a call makes has reached the sink when it
// returns: errors are synchronous, as Writer's and StreamWriter's are, and
// no goroutine outlives a call, Close called or not (DESIGN 5q).
type ParallelWriter struct {
	memberWriter // Write and Close, a chunk per worker at a time through lanes that are the writer's

	// Stats accumulates device accounting across members. Read it after
	// Close.
	Stats Metrics
}

// NewParallelWriter returns a ParallelWriter with the default chunk size
// and worker count.
func (a *Accelerator) NewParallelWriter(out io.Writer) *ParallelWriter {
	return a.NewParallelWriterChunk(out, DefaultChunkSize, DefaultParallelWorkers)
}

// NewParallelWriterChunk returns a ParallelWriter with an explicit
// request size and worker count. Each worker is a private node context
// (one send window per device) — which window a chunk goes through decides
// how warm its translations are, so the windows are the writer's, opened
// here and closed by Close — and each chunk is dispatched to a device by
// the node policy, so on a multi-device node the chunks of one stream
// shard across the pool.
func (a *Accelerator) NewParallelWriterChunk(out io.Writer, chunk, workers int) *ParallelWriter {
	if workers <= 0 {
		workers = DefaultParallelWorkers
	}
	lanes := make([]*topology.Context, workers)
	for i := range lanes {
		lanes[i] = a.node.OpenContext(a.nctx.PID())
	}
	w := &ParallelWriter{}
	w.memberWriter = newMemberWriter(a, out, chunk, &w.Stats, a.met.parallelChunks, a.met.reorderDepth, lanes...)
	return w
}

// Close compresses the remaining buffered data, writes its members to the
// sink, releases the worker windows, and returns the first error
// encountered. Close is idempotent.
func (w *ParallelWriter) Close() error {
	err := w.memberWriter.Close()
	for _, nctx := range w.lanes {
		nctx.Close()
	}
	return err
}
