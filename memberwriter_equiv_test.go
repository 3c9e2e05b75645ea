package nxzip

// memberwriter_equiv_test.go holds the two member writers to the
// ParallelWriter that ran its chunks through persistent workers and a
// collector goroutine: refParallelWriter is that writer, kept as the
// test-only oracle, and for every stream, chunk size, node, engine count,
// worker count and sequence of Write sizes below Writer and ParallelWriter
// must emit the oracle's bytes — which are the stamped one-shots of the
// chunks — and account its Stats wherever the oracle's own are a function
// of the stream.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"nxzip/internal/testutil"
)

// refParallelWriter is the ParallelWriter of the commit before the member
// writers shared one wave (9e01a47): parallel.go verbatim but for the
// names of its two types and its one constructor taking the view as an
// argument.
type refParallelWriter struct {
	acc   *Accelerator
	out   io.Writer
	chunk int

	cur   *refPwJob      // the chunk Write is filling; nil between chunks
	jobs  chan *refPwJob // to the workers
	order chan *refPwJob // to the collector, in submission order
	// free holds the jobs not in the pipeline. There are 2x workers of
	// them in all — enough to keep every worker busy while the collector
	// waits on the oldest, the role the FIFO depth plays on the device —
	// and Write blocks here when compression runs that far ahead of the
	// sink. A job keeps its chunk and member buffers from one use to the
	// next. jobs and order have room for every job, so only free blocks.
	free chan *refPwJob
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

// refPwJob is one chunk on its way to becoming one member.
type refPwJob struct {
	data []byte        // the chunk, copied from the caller's writes
	gz   []byte        // the member a worker made of it,
	m    Metrics       // its accounting
	err  error         // and why there is none
	done chan struct{} // worker to collector: gz, m and err are set
}

// refNewParallelWriterChunk returns a refParallelWriter with an explicit
// request size and worker count. Each worker opens its own VAS send
// window; the windows close when the writer is Closed.
func refNewParallelWriterChunk(a *Accelerator, out io.Writer, chunk, workers int) *refParallelWriter {
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	if workers <= 0 {
		workers = DefaultParallelWorkers
	}
	depth := 2 * workers
	w := &refParallelWriter{
		acc:   a,
		out:   out,
		chunk: chunk,
		jobs:  make(chan *refPwJob, depth),
		order: make(chan *refPwJob, depth),
		free:  make(chan *refPwJob, depth),
		done:  make(chan struct{}),
	}
	for i := 0; i < depth; i++ {
		w.free <- &refPwJob{done: make(chan struct{}, 1)}
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
func (w *refParallelWriter) worker() {
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
func (w *refParallelWriter) collect() {
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
func (w *refParallelWriter) dispatch() {
	job := w.cur
	w.cur = nil
	w.order <- job
	w.acc.met.parallelChunks.Inc()
	w.acc.met.reorderDepth.Add(1)
	w.jobs <- job
	w.submitted = true
}

func (w *refParallelWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Write copies p into chunk buffers — once, straight from p — and
// dispatches each full one to the workers, blocking while every job is in
// the pipeline (backpressure). Errors are asynchronous: a failure in a
// worker or the sink surfaces on a later Write or on Close.
func (w *refParallelWriter) Write(p []byte) (int, error) {
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
func (w *refParallelWriter) Close() error {
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

// memberWriterViews are the table's nodes; a row runs on twin views of one
// of them — same shape, same requests so far — so that where the oracle's
// cycles are a function of the stream, the writer's can be held to them.
var memberWriterViews = []struct {
	name string
	open func(t testing.TB, engines int) *Accelerator
}{
	{"P9", func(t testing.TB, engines int) *Accelerator {
		cfg := P9()
		cfg.Device.Engines = engines
		return Open(cfg)
	}},
	{"z15x4", func(t testing.TB, engines int) *Accelerator {
		cfg := Z15Node(1) // one drawer: four zEDC units behind the dispatcher
		for i := range cfg.Shape.Devices {
			cfg.Shape.Devices[i].Config.Engines = engines
		}
		n, err := OpenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n.View()
	}},
}

// memberWriterWorkers are the table's writers: Writer (0), then
// ParallelWriter at each worker count.
var memberWriterWorkers = []int{0, 1, 2, 3, 8}

var memberWriterChunks = []int{8, 4 << 10, 32 << 10, 256 << 10}

// memberWriterCases is streamWriterCases for members: the same Write
// patterns over a stream of a few more chunks than the widest writer has
// lanes — so a Write of it all holds whole waves and Close a short one —
// but for the largest chunk, which stops at a MiB.
func memberWriterCases(chunk int) []streamWriterCase {
	n := min(11, 1<<20/chunk) * chunk
	rng := rand.New(rand.NewSource(10))
	random := make([]int, 16)
	for i := range random {
		random[i] = rng.Intn(3*chunk+7) + 1
	}
	return []streamWriterCase{
		{name: "one Write", n: n},
		{name: "1-byte writes", n: n, sizes: []int{1}},
		{name: "chunk-1, chunk, chunk+1", n: n, sizes: []int{chunk - 1, chunk, chunk + 1}},
		{name: "3*chunk+7", n: n, sizes: []int{3*chunk + 7}},
		{name: "random sizes", n: n, sizes: random},
		{name: "empty stream", n: 0},
		{name: "short last member", n: n - chunk + chunk/3 + 1},
	}
}

// memberWriterTwins is a row's accelerators: the writer under test runs on
// got, its oracle on ref, and the one-shots both are made of on shots,
// where they disturb neither.
type memberWriterTwins struct{ got, ref, shots *Accelerator }

func openMemberWriterTwins(t testing.TB, view, engines int) memberWriterTwins {
	open := memberWriterViews[view].open
	tw := memberWriterTwins{open(t, engines), open(t, engines), open(t, engines)}
	t.Cleanup(func() {
		tw.got.Close()
		tw.ref.Close()
		tw.shots.Close()
	})
	return tw
}

// stampedOneShots is what both writers must emit for src: member for
// member, the one-shot CompressGzip of each chunk with the length subfield
// set in — and, summed, what a Writer on a twin of acc must account, since
// it sends the same requests through the same window.
func stampedOneShots(t testing.TB, acc *Accelerator, src []byte, chunk int) (members [][]byte, stats Metrics) {
	t.Helper()
	for off := 0; off < len(src) || off == 0; off += chunk {
		gz, m, err := acc.CompressGzip(src[off:min(off+chunk, len(src))])
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, stampMember(gz))
		m.OutBytes += len(members[len(members)-1]) - len(gz)
		stats.add(m)
	}
	if stats.InBytes > 0 {
		stats.Ratio = float64(stats.InBytes) / float64(stats.OutBytes)
	}
	return members, stats
}

// checkMemberWritersEqualReference is the one comparison the table and the
// fuzz target make. workers 0 is Writer, whose oracle is the one-shots on
// the twin view; any other count is ParallelWriter against
// refParallelWriter with as many workers.
func checkMemberWritersEqualReference(t *testing.T, tw memberWriterTwins, workers int, src []byte, chunk int, sizes []int) {
	t.Helper()
	var (
		sink, refSink memberSink
		got, want     Metrics
		counted       int64
	)
	if workers > 1 {
		// Which window a chunk goes through is the scheduler's choice in
		// both writers, and the translation cache is 32 entries first in
		// first out: cycles are compared for one window only, and a row
		// with more runs where it cannot make the twins' histories differ.
		tw.got, tw.ref = tw.shots, tw.shots
	}
	if workers == 0 {
		before := tw.got.met.writerMembers.Value()
		w := tw.got.NewWriterChunk(&sink, chunk)
		if err := writeSplit(w, src, sizes); err != nil {
			t.Fatal(err)
		}
		got, counted = w.Stats, tw.got.met.writerMembers.Value()-before
		refSink.members, want = stampedOneShots(t, tw.ref, src, chunk)
	} else {
		before := tw.got.met.parallelChunks.Value()
		w := tw.got.NewParallelWriterChunk(&sink, chunk, workers)
		if err := writeSplit(w, src, sizes); err != nil {
			t.Fatal(err)
		}
		got, counted = w.Stats, tw.got.met.parallelChunks.Value()-before
		if depth := tw.got.met.reorderDepth.Value(); depth != 0 {
			t.Fatalf("reorder depth %d after Close", depth)
		}
		ref := refNewParallelWriterChunk(tw.ref, &refSink, chunk, workers)
		if err := writeSplit(ref, src, sizes); err != nil {
			t.Fatalf("reference: %v", err)
		}
		want = ref.Stats
		shots, _ := stampedOneShots(t, tw.shots, src, chunk)
		if len(shots) != len(refSink.members) {
			t.Fatalf("the reference emitted %d members, the stream holds %d chunks", len(refSink.members), len(shots))
		}
		for i := range shots {
			if !bytes.Equal(refSink.members[i], shots[i]) {
				t.Fatalf("the reference's member %d is not the stamped one-shot", i)
			}
		}
	}

	if len(sink.members) != len(refSink.members) || counted != int64(len(sink.members)) {
		t.Fatalf("%d members emitted and %d counted, the reference emitted %d", len(sink.members), counted, len(refSink.members))
	}
	for i := range sink.members {
		if !bytes.Equal(sink.members[i], refSink.members[i]) {
			t.Fatalf("member %d of %d differs from the reference's", i, len(sink.members))
		}
	}
	stream := sink.bytes()
	if got.InBytes != len(src) || got.OutBytes != len(stream) || got.Ratio != want.Ratio {
		t.Fatalf("Stats in/out %d/%d ratio %v, stream is %d/%d and the reference's ratio %v", got.InBytes, got.OutBytes, got.Ratio, len(src), len(stream), want.Ratio)
	}
	// One window, one order: every field is the reference's.
	if workers <= 1 && got != want {
		t.Fatalf("Stats %+v\nreference %+v", got, want)
	}
	if got.Degraded || got.Redispatches != 0 || got.Faults != 0 {
		t.Fatalf("recovery cost on a healthy node: %+v", got)
	}

	zr, err := gzip.NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if plain, err := io.ReadAll(zr); err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("compress/gzip: %d bytes of %d, err %v", len(plain), len(src), err)
	}
	if plain, err := io.ReadAll(tw.shots.NewParallelReader(bytes.NewReader(stream), 2)); err != nil || !bytes.Equal(plain, src) {
		t.Fatalf("Reader: %d bytes of %d, err %v", len(plain), len(src), err)
	}
}

func TestMemberWritersEqualReference(t *testing.T) {
	input := streamWriterInput(1 << 20)
	views, chunks := len(memberWriterViews), memberWriterChunks
	if testutil.RaceEnabled {
		// What a wave's jobs share is the same on every node and at every
		// chunk size: one node, and not the MiB streams.
		views, chunks = 1, chunks[:3]
	}
	for view := 0; view < views; view++ {
		for _, engines := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/engines=%d", memberWriterViews[view].name, engines), func(t *testing.T) {
				t.Parallel() // each accelerator is its own device model
				for _, workers := range memberWriterWorkers {
					tw := openMemberWriterTwins(t, view, engines)
					for _, chunk := range chunks {
						for _, tc := range memberWriterCases(chunk) {
							t.Run(fmt.Sprintf("workers=%d/chunk=%d/%s", workers, chunk, tc.name), func(t *testing.T) {
								checkMemberWritersEqualReference(t, tw, workers, input[:tc.n], chunk, tc.sizes)
							})
						}
					}
				}
			})
		}
	}
}

// TestMemberWritersCyclesOnFreshViews: with more than one window the sum
// of a stream's device cycles is still a function of the stream once every
// window has taken a chunk — each pays for its cold translations once — and
// a stream of many more chunks than windows, written to a view nothing
// else has used, is such a stream in both writers.
func TestMemberWritersCyclesOnFreshViews(t *testing.T) {
	const chunk = 32 << 10
	src := streamWriterInput(24 * chunk)
	for view := range memberWriterViews {
		for _, workers := range []int{2, 3} {
			tw := openMemberWriterTwins(t, view, workers)
			w := tw.got.NewParallelWriterChunk(io.Discard, chunk, workers)
			ref := refNewParallelWriterChunk(tw.ref, io.Discard, chunk, workers)
			if err := writeSplit(w, src, nil); err != nil {
				t.Fatal(err)
			}
			if err := writeSplit(ref, src, nil); err != nil {
				t.Fatal(err)
			}
			if w.Stats != ref.Stats {
				t.Errorf("%s, %d workers: Stats %+v\nreference %+v", memberWriterViews[view].name, workers, w.Stats, ref.Stats)
			}
		}
	}
}

func FuzzMemberWritersEqualReference(f *testing.F) {
	// One set of twins per node and engine count, shared by every worker
	// count: the views' histories stay twins whichever rows ran on them.
	var twins []memberWriterTwins
	for view := range memberWriterViews {
		for _, engines := range []int{1, 2, 4} {
			twins = append(twins, openMemberWriterTwins(f, view, engines))
		}
	}
	// The table's patterns at the chunk sizes up to 32 KiB, on streams cut
	// short of the table's: a seed is mutated whole.
	input := streamWriterInput(96 << 10)
	for i, chunk := range memberWriterChunks[:3] {
		for k, tc := range memberWriterCases(chunk) {
			var splits []byte
			for _, s := range tc.sizes {
				splits = binary.LittleEndian.AppendUint32(splits, uint32(s))
			}
			f.Add(input[:min(tc.n, len(input))], uint32(chunk), splits, uint8(i+k), uint8(7*i+k))
		}
	}
	f.Fuzz(func(t *testing.T, src []byte, chunk uint32, splits []byte, workers, which uint8) {
		// A chunk the fuzzer cannot raise past 256 KiB nor lower to where
		// the stream is more than 64 members: each is three device requests.
		c := max(1+int(chunk%(256<<10)), len(src)/64)
		var sizes []int
		for ; len(splits) >= 4; splits = splits[4:] {
			sizes = append(sizes, 1+int(binary.LittleEndian.Uint32(splits)%uint32(4*c+8)))
		}
		checkMemberWritersEqualReference(t, twins[int(which)%len(twins)], memberWriterWorkers[int(workers)%len(memberWriterWorkers)], src, c, sizes)
	})
}
