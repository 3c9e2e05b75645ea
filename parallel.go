package nxzip

import (
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
	acc   *Accelerator
	out   io.Writer
	chunk int

	cur   *pwJob      // the chunk Write is filling; nil between chunks
	jobs  chan *pwJob // to the workers
	order chan *pwJob // to the collector, in submission order
	// free holds the jobs not in the pipeline. There are 2x workers of
	// them in all — enough to keep every worker busy while the collector
	// waits on the oldest, the role the FIFO depth plays on the device —
	// and Write blocks here when compression runs that far ahead of the
	// sink. A job keeps its chunk and member buffers from one use to the
	// next. jobs and order have room for every job, so only free blocks.
	free chan *pwJob
	done chan struct{} // collector exit
	wkWG sync.WaitGroup

	mu        sync.Mutex
	err       error // first worker/sink error
	closed    bool
	submitted bool

	// Stats accumulates device accounting across members. Read it after
	// Close.
	Stats Metrics
}

// pwJob is one chunk on its way to becoming one member.
type pwJob struct {
	data []byte        // the chunk, copied from the caller's writes
	gz   []byte        // the member a worker made of it,
	m    Metrics       // its accounting
	err  error         // and why there is none
	done chan struct{} // worker to collector: gz, m and err are set
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
	depth := 2 * workers
	w := &ParallelWriter{
		acc:   a,
		out:   out,
		chunk: chunk,
		jobs:  make(chan *pwJob, depth),
		order: make(chan *pwJob, depth),
		free:  make(chan *pwJob, depth),
		done:  make(chan struct{}),
	}
	for i := 0; i < depth; i++ {
		w.free <- &pwJob{done: make(chan struct{}, 1)}
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
		job.gz, job.err = w.acc.compressMember(nctx, job.gz, job.data, &job.m)
		job.done <- struct{}{}
	}
}

// collect writes finished members to the sink in submission order and
// puts their jobs back on the free list.
func (w *ParallelWriter) collect() {
	defer close(w.done)
	for job := range w.order {
		<-job.done
		w.acc.met.reorderDepth.Add(-1)
		w.mu.Lock()
		failed := w.err != nil
		if job.err != nil && !failed {
			w.err = job.err
			failed = true
		}
		w.mu.Unlock()
		if !failed { // else keep draining, so Write never blocks forever
			w.Stats.add(&job.m)
			if _, err := w.out.Write(job.gz); err != nil {
				w.mu.Lock()
				if w.err == nil {
					w.err = err
				}
				w.mu.Unlock()
			}
		}
		job.data = job.data[:0]
		w.free <- job
	}
}

// dispatch hands the chunk being filled to the pipeline.
func (w *ParallelWriter) dispatch() {
	job := w.cur
	w.cur = nil
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

// Write copies p into chunk buffers — once, straight from p — and
// dispatches each full one to the workers, blocking while every job is in
// the pipeline (backpressure). Errors are asynchronous: a failure in a
// worker or the sink surfaces on a later Write or on Close.
func (w *ParallelWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrWriterClosed
	}
	if err := w.firstErr(); err != nil {
		return 0, err
	}
	for rest := p; len(rest) > 0; {
		if w.cur == nil {
			w.cur = <-w.free
		}
		take := min(w.chunk-len(w.cur.data), len(rest))
		w.cur.data = append(w.cur.data, rest[:take]...)
		rest = rest[take:]
		if len(w.cur.data) == w.chunk {
			w.dispatch()
		}
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
	if w.cur == nil && !w.submitted {
		w.cur = <-w.free // no data at all: one empty member
	}
	if w.cur != nil {
		w.dispatch()
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
