package nxzip

import (
	"bytes"
	"io"
	"sync"
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
// internal. Stats is valid after Close returns.
type ParallelWriter struct {
	acc     *Accelerator
	out     io.Writer
	chunk   int
	workers int

	buf   bytes.Buffer
	jobs  chan *pwJob
	order chan *pwJob
	done  chan struct{} // collector exit
	wkWG  sync.WaitGroup

	mu        sync.Mutex
	err       error // first worker/sink error
	closed    bool
	submitted bool

	// Stats accumulates device accounting across members. Read it after
	// Close.
	Stats Metrics
}

type pwJob struct {
	data []byte
	res  chan pwRes
}

type pwRes struct {
	gz  []byte
	m   *Metrics
	err error
}

// NewParallelWriter returns a ParallelWriter with the default chunk size
// and worker count.
func (a *Accelerator) NewParallelWriter(out io.Writer) *ParallelWriter {
	return a.NewParallelWriterChunk(out, DefaultChunkSize, DefaultParallelWorkers)
}

// NewParallelWriterChunk returns a ParallelWriter with an explicit
// request size and worker count. Each worker opens its own VAS send
// window; the windows close when the writer is Closed.
func (a *Accelerator) NewParallelWriterChunk(out io.Writer, chunk, workers int) *ParallelWriter {
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	if workers <= 0 {
		workers = DefaultParallelWorkers
	}
	w := &ParallelWriter{
		acc:     a,
		out:     out,
		chunk:   chunk,
		workers: workers,
		jobs:    make(chan *pwJob, workers),
		// The reorder queue bounds how far ahead compression may run:
		// 2x workers keeps every worker busy while capping buffered
		// members, the same role the FIFO depth plays on the device.
		order: make(chan *pwJob, 2*workers),
		done:  make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		w.wkWG.Add(1)
		go w.worker()
	}
	go w.collect()
	return w
}

// worker compresses jobs through a private node context (one send window
// per device); each job is dispatched to a device by the node policy, so
// on a multi-device node the chunks of one stream shard across the pool.
func (w *ParallelWriter) worker() {
	defer w.wkWG.Done()
	nctx := w.acc.node.OpenContext(w.acc.nctx.PID())
	defer nctx.Close()
	for job := range w.jobs {
		gz, m, err := w.acc.compressMember(nctx, job.data)
		job.res <- pwRes{gz: gz, m: m, err: err}
	}
}

// collect writes finished members to the sink in submission order.
func (w *ParallelWriter) collect() {
	defer close(w.done)
	for job := range w.order {
		r := <-job.res
		w.acc.met.reorderDepth.Add(-1)
		w.mu.Lock()
		failed := w.err != nil
		if r.err != nil && !failed {
			w.err = r.err
			failed = true
		}
		w.mu.Unlock()
		if failed {
			continue // keep draining so workers never block forever
		}
		w.Stats.add(r.m)
		if _, err := w.out.Write(r.gz); err != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = err
			}
			w.mu.Unlock()
		}
	}
}

// dispatch hands one chunk to the pipeline, blocking when the reorder
// queue is full (backpressure).
func (w *ParallelWriter) dispatch(chunk []byte) {
	job := &pwJob{data: chunk, res: make(chan pwRes, 1)}
	w.order <- job
	w.acc.met.parallelChunks.Inc()
	w.acc.met.reorderDepth.Add(1)
	w.jobs <- job
	w.submitted = true
}

func (w *ParallelWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Write buffers p and dispatches full chunks to the workers. Errors are
// asynchronous: a failure in a worker or the sink surfaces on a later
// Write or on Close.
func (w *ParallelWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrWriterClosed
	}
	if err := w.firstErr(); err != nil {
		return 0, err
	}
	w.buf.Write(p)
	for w.buf.Len() >= w.chunk {
		data := make([]byte, w.chunk)
		copy(data, w.buf.Next(w.chunk))
		w.dispatch(data)
	}
	return len(p), nil
}

// Close flushes the remaining buffered data, waits for all in-flight
// members to drain to the sink, releases the worker windows, and returns
// the first error encountered. Close is idempotent.
func (w *ParallelWriter) Close() error {
	if w.closed {
		return w.firstErr()
	}
	w.closed = true
	if w.buf.Len() > 0 || !w.submitted {
		data := make([]byte, w.buf.Len())
		copy(data, w.buf.Next(w.buf.Len()))
		w.dispatch(data)
	}
	close(w.jobs)
	close(w.order)
	<-w.done
	w.wkWG.Wait()
	if w.Stats.InBytes > 0 && w.Stats.OutBytes > 0 {
		w.Stats.Ratio = float64(w.Stats.InBytes) / float64(w.Stats.OutBytes)
	}
	return w.firstErr()
}
