package nxzip

// batch.go is the public face of batched small-request submission. The
// per-request overhead of the queued path — paste, credit, FIFO slot,
// drain round, dispatch pick — is fixed, so at few-KiB payloads it
// dominates the engine's actual work (the paper's latency-vs-size curves
// show the wall). CompressBatch amortizes it: requests are grouped by
// the device the dispatch policy picks, each device's group rides ONE
// switchboard envelope (one paste, one credit, one FIFO round), and the
// groups run concurrently across the node. Experiment E21 measures the
// crossover against the per-request path and software.

import (
	"errors"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/nx"
	"nxzip/internal/telemetry"
)

// BatchRequest is one request of a CompressBatch call.
type BatchRequest struct {
	// Src is the payload to compress.
	Src []byte
	// Deadline, when non-zero, bounds this request's wall-clock,
	// including admission queueing, paste backoff and the software
	// fallback: once it passes, the request fails with
	// nx.ErrDeadlineExceeded at the next checkpoint instead of consuming
	// further capacity. That budget belongs to the caller, so expiry
	// surfaces directly — it is never absorbed by the fallback.
	Deadline time.Time
	// Cancel, when non-nil, abandons the request when the channel
	// closes, checked at the same points as Deadline (failing with
	// nx.ErrCanceled).
	Cancel <-chan struct{}
	// Dst, when non-nil, is a caller-owned output backing with the
	// append semantics of CompressGzipInto; Out may alias it.
	Dst []byte
	// Out receives the gzip frame.
	Out []byte
	// Metrics receives the request accounting. The first request of each
	// device's group additionally carries the group-level paste
	// accounting (PasteRejects/BackoffWaits/BackoffTime) — there is one
	// paste per device per dispatch wave, not one per request. (Without
	// admission a batch is a single wave; with admission enabled a batch
	// larger than the gate's in-flight ceiling dispatches in waves of at
	// most that many requests.)
	Metrics Metrics
	// Err reports a terminal per-request failure. Requests whose device
	// flaked mid-batch are transparently re-dispatched to another device
	// or, failing that, completed by the software fallback with
	// Metrics.Degraded set, so Err is non-nil only when
	// the input itself is at fault (or the fallback failed too), the
	// Deadline/Cancel gate tripped, or the admission gate shed the
	// request under overload (admission.ErrOverloaded).
	Err error
	// Device is the node-local index of the device that served this
	// request, -1 when the software fallback completed it. E21 uses it to
	// reconstruct each device's share of the batch timeline.
	Device int
}

// batchItem pairs a batch request with its pipeline request.
type batchItem struct {
	br *BatchRequest
	r  *request
}

// done publishes the request's result on its BatchRequest. dev is the
// serving device, -1 for the software path or none.
func (it batchItem) done(dev int, out []byte, err error) {
	it.br.Out, it.br.Err, it.br.Device = out, err, dev
	it.br.Metrics = it.r.m
	it.r.free()
}

// CompressBatch compresses every request into a gzip frame using the
// configured table mode, amortizing submission overhead: one paste and
// one FIFO round per device per batch instead of one per request.
// Results and per-request errors land on the requests themselves. Nil
// requests are skipped. Like the one-shot paths, device-local failures
// re-dispatch and then degrade to the software encoder rather than
// failing the batch.
func (a *Accelerator) CompressBatch(reqs []*BatchRequest) {
	n := a.nctx.Size()
	groups := make([][]nx.BatchEntry, n)
	owners := make([][]batchItem, n)
	// wave is every request admitted since the last flush; stragglers are
	// the requests a wave could not complete, finished one by one at the
	// end. Admission tickets are held per dispatch wave, not for the whole
	// batch: a batch larger than the gate's in-flight ceiling would
	// otherwise saturate the gate with its own earlier tickets and park
	// later requests behind slots nothing can free until the batch ends.
	var (
		wave       []*request
		stragglers []batchItem
	)
	// flush dispatches the accumulated wave — one envelope per device
	// with queued entries — releases the wave's tickets so the next wave
	// or concurrent traffic can take the slots, then settles the results.
	flush := func() {
		errs := a.nctx.SubmitBatch(groups)
		for _, r := range wave {
			r.ticket.Release()
		}
		wave = wave[:0]
		for i := range groups {
			for k := range groups[i] {
				en, it := &groups[i][k], owners[i][k]
				err := errs[i] // device-level failure drops the whole group
				if err == nil {
					err = en.Err
				}
				out, _, err := it.r.settle(&en.CSB, &en.Rep, err)
				switch {
				case err == nil:
					it.done(i, out, it.r.finish(a.node.Label(i), telemetry.OutcomeOK, nil))
				case it.r.absorb(err):
					stragglers = append(stragglers, it)
				default:
					it.done(-1, nil, it.r.finish(a.node.Label(i), telemetry.OutcomeError, err))
				}
			}
			groups[i], owners[i] = groups[i][:0], owners[i][:0]
		}
	}
	for _, br := range reqs {
		if br == nil {
			continue
		}
		it := batchItem{br, a.newRequest(a.nctx, nil, op{kind: opCompress, name: "batch-compress", format: FormatGzip,
			src: br.Src, dst: br.Dst, deadline: br.Deadline, cancel: br.Cancel})}
		if err := it.r.expired(); err != nil {
			it.done(-1, nil, it.r.finish("", telemetry.OutcomeError, err))
			continue
		}
		// Requests admit with NoWait; when the gate reports full —
		// possibly with this batch's own wave — make room by dispatching
		// and releasing what we hold, then present again, this time willing
		// to queue: any further wait is genuine contention with other
		// traffic, not self-inflicted.
		err := it.r.admit(true)
		if errors.Is(err, admission.ErrWouldWait) {
			flush()
			err = it.r.admit(false)
		}
		if err != nil {
			it.done(-1, nil, it.r.finish("admission", telemetry.OutcomeShed, err))
			continue
		}
		i, ok := it.r.pick()
		if !ok {
			stragglers = append(stragglers, it) // brownout or pool unhealthy: software
		} else if err := it.r.build(i); err != nil {
			it.done(-1, nil, it.r.finish(a.node.Label(i), telemetry.OutcomeError, err))
			continue
		} else {
			groups[i] = append(groups[i], nx.BatchEntry{CRB: it.r.crb})
			owners[i] = append(owners[i], it)
		}
		wave = append(wave, it.r)
	}
	flush()
	// A straggler's device flaked (or it never had one): it rides the
	// single-request attempt loop — another device, then software.
	for _, it := range stragglers {
		out, err := it.r.resume()
		dev := -1
		if err == nil && !it.r.m.Degraded {
			dev = it.r.dev
		}
		it.done(dev, out, err)
	}
}
