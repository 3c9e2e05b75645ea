package nxzip

// request.go is the one request pipeline. Every root-level operation —
// one-shot, *Into, batch entry, gzip member, stream segment — is an op
// value run by a pooled request, and each lifecycle step is implemented
// here exactly once:
//
//	newRequest  mint the RequestID, stamp the start time
//	expired     the caller's Deadline/Cancel gate
//	admit       the overload gate (shed | brownout-degrade | admit)
//	pick        device choice: the dispatch policy, or a stream's pin
//	build       VA spans + the CRB, in the request's pooled blocks
//	settle      release spans, fold the round's accounting, classify the CC
//	absorb      a failed attempt: keep its cost, decide re-dispatch, publish
//	fallback    the software path (soft, fallback.go)
//	finish      wasted cost, counters, digest + spans + tenant observation, reqError
//
// Three drivers sequence the steps. do is the single-dispatch driver
// behind every one-shot, *Into and member call. CompressBatch (batch.go)
// runs admit/pick/build per entry, submits a wave in one envelope per
// device, settles each entry, and hands stragglers to resume — the same
// attempt loop do runs. A sticky stream is do with a pin: attempts stay
// on the pinned device, migrate with PickStickyAvoid, and do not count
// against per-request in-flight load.
//
// The steady state of the *Into path touches the allocator zero times:
// the request and its CRB/CSB/Report come from a free list, the op is a
// plain value (no closures), VA spans recycle through the context arena
// and the engine writes into the caller's dst.

import (
	"bytes"
	"fmt"
	"time"

	"nxzip/internal/admission"
	"nxzip/internal/flightrec"
	"nxzip/internal/freelist"
	"nxzip/internal/nx"
	"nxzip/internal/telemetry"
	"nxzip/internal/topology"
)

// opKind selects how an op's CRB is built and which software body
// stands in for the device.
type opKind uint8

const (
	opCompress   opKind = iota // one whole payload into op.format
	opDecompress               // one whole op.format stream
	opMember                   // first gzip member of src; Metrics.InBytes reports the bytes consumed
	opDict                     // raw DEFLATE against a preset dictionary (history); zlib FDICT framing by the caller
	opTranscode                // op.format stream re-encoded as op.to in one device round trip
	opSegment                  // one StreamWriter segment: raw DEFLATE continuing history
	opResume                   // one StreamReader chunk: raw DEFLATE resuming state
)

// op describes one root-level operation as a value.
type op struct {
	kind   opKind
	name   string // the digest's Op
	format Format // wire format; the source side of a transcode
	to     Format // transcode target
	src    []byte
	// dst, when non-nil, is caller-owned output backing with append
	// semantics. When nil, the DEFLATE one-shots target the request's
	// pooled scratch and return an exact-size copy; every other kind
	// returns the engine's own buffer.
	dst       []byte
	history   []byte          // opDict's dictionary, opSegment's window
	state     *nx.DecompState // opResume; advances inside the engine, so only pre-engine failures may re-dispatch
	notFinal  bool            // opSegment/opResume: more of the stream follows
	maxOutput int             // decompression bound
	deadline  time.Time
	cancel    <-chan struct{}
}

// need is the capability set a device must advertise to run o.
func (o *op) need() nx.CodecSet {
	if o.kind == opTranscode {
		return nx.Codecs(o.format.Codec(), o.to.Codec())
	}
	return nx.Codecs(o.format.Codec())
}

// codecLabel is the digest's Codec: a constant for a single-codec op, and
// for a transcode its two codecs joined, from a table built once
// (CodecSet.String is three allocations a call).
func (o *op) codecLabel() string {
	if o.kind == opTranscode {
		return transcodeLabels[o.format.Codec()][o.to.Codec()]
	}
	return o.format.Codec().String()
}

// transcodeLabels[from][to] is nx.Codecs(from, to).String().
var transcodeLabels = func() (t [nx.CodecCount][nx.CodecCount]string) {
	for _, from := range nx.AllCodecs() {
		for _, to := range nx.AllCodecs() {
			t[from][to] = nx.Codecs(from, to).String()
		}
	}
	return t
}()

// inflates reports the direction: output/input is the ratio, and the
// plaintext the checksums cover is the output.
func (o *op) inflates() bool {
	return o.kind == opDecompress || o.kind == opMember || o.kind == opResume
}

// mapped reports whether the engine reaches the operands through VA
// spans (and is charged their translation): the DEFLATE one-shots and
// the member decode. Block codecs, dictionary, transcode and stream
// requests submit unmapped.
func (o *op) mapped() bool {
	return o.format.Codec() == nx.CodecDeflate &&
		(o.kind == opCompress || o.kind == opDecompress || o.kind == opMember)
}

// pooledTarget reports whether the engine writes into the request's
// scratch, the caller getting an exact-size copy: a one-shot compress or
// decompress with no target of the caller's, in any format — the block
// codecs encode and decode into the CRB target as DEFLATE does.
func (o *op) pooledTarget() bool {
	return o.dst == nil && (o.kind == opCompress || o.kind == opDecompress)
}

// defaultMaxOutput is the decompression bound applied when the caller
// gives none: 256x the input, at least 1 MiB.
func defaultMaxOutput(n int) int { return max(256*n, 1<<20) }

// memberCapInitial is the first output-buffer size an opMember tries;
// memberCapGrowth multiplies it on each target-space resubmit.
const (
	memberCapInitial = 4 << 20
	memberCapGrowth  = 8
)

// request is one root-level operation in flight.
type request struct {
	a    *Accelerator
	nctx *topology.Context
	pin  **nx.Context // a sticky stream's pinned device context; nil = dispatch every attempt
	op   op

	id           uint64
	start        time.Time
	ticket       admission.Ticket
	brownout     bool // the gate degraded the request: software only
	attempts     int  // device attempts started
	redispatches int  // failed attempts absorbed

	m      Metrics // accounting of the current attempt, then of the result
	wasted Metrics // cost of the failed attempts

	dev          int // device of the current attempt
	srcVA, dstVA uint64
	capOut       int // opMember's current target size

	// rec is the recorder the request started under, nil when it is off;
	// when it is on, every attempt's CRB records into log and the digest
	// hands log over.
	rec *flightrec.Recorder

	crb nx.CRB
	csb nx.CSB
	rep nx.Report
	buf []byte             // scratch target backing; never escapes the pool
	log *telemetry.SpanLog // span storage kept with the pooled request
}

// requestPool is a free list, not a sync.Pool: a collection leaves it as
// it is, so what a request path allocates does not follow how often the
// process collects (on a heap of a few tens of MB, several times a second).
// Requests are filed under their node context's ID, so a view gets back
// the block it returned last, not whichever a neighbour returned.
var requestPool = freelist.New(func() *request { return new(request) })

// maxPooledScratch is the largest output scratch a request takes back to
// the list with it: the list keeps its blocks for the life of the process,
// so one huge one-shot must not leave its buffer behind.
const maxPooledScratch = 4 << 20

// newRequest begins an operation: a pooled request carrying a fresh
// RequestID. nctx is the node context attempts dispatch through (the
// view's own, or a parallel worker's).
func (a *Accelerator) newRequest(nctx *topology.Context, pin **nx.Context, o op) *request {
	r := requestPool.GetFor(nctx.ID())
	r.a, r.nctx, r.pin, r.op = a, nctx, pin, o
	r.id = nextReq()
	r.start = time.Now()
	if r.rec = a.recorder(); r.rec != nil {
		if r.log == nil {
			r.log = telemetry.NewSpanLog()
		}
		r.log.Reset()
	}
	return r
}

// free returns r to the pool with every caller-visible reference
// dropped, so a pooled entry can neither pin request data past the call
// nor alias bytes the caller now owns. buf is pool-owned scratch and is
// deliberately kept, up to maxPooledScratch, and so is the span log.
func (r *request) free() {
	r.ticket.Release()
	var key uint64 // where newRequest took it from; 0 for a request it never built
	if r.nctx != nil {
		key = r.nctx.ID()
	}
	buf := r.buf
	if cap(buf) > maxPooledScratch {
		buf = nil
	}
	*r = request{buf: buf, log: r.log}
	requestPool.PutFor(key, r)
}

// do runs one operation start to finish through nctx — the driver of
// every entry point that is not a batch. m, when non-nil, receives the
// accounting (on failure: the cost of the failed attempts).
func (a *Accelerator) do(nctx *topology.Context, pin **nx.Context, o op, m *Metrics) ([]byte, error) {
	r := a.newRequest(nctx, pin, o)
	out, err := r.run()
	if m != nil {
		*m = r.m
	}
	r.free()
	return out, err
}

// doNew is do for the entry points that return a fresh *Metrics.
func (a *Accelerator) doNew(nctx *topology.Context, o op) ([]byte, *Metrics, error) {
	m := new(Metrics)
	out, err := a.do(nctx, nil, o, m)
	return out, m, err
}

// run is the single-dispatch driver: the caller's gate, the overload
// gate, then the attempt loop.
func (r *request) run() ([]byte, error) {
	if err := r.expired(); err != nil {
		return nil, r.finish("", telemetry.OutcomeError, err)
	}
	if err := r.admit(false); err != nil {
		return nil, r.finish("admission", telemetry.OutcomeShed, err)
	}
	return r.resume()
}

// resume is the attempt loop: one attempt per device plus one,
// re-dispatching absorbed failures, then the software path.
func (r *request) resume() ([]byte, error) {
	for r.attempts <= r.nctx.Size() {
		i, ok := r.pick()
		if !ok {
			break
		}
		out, err := r.attempt(i)
		if err == nil {
			return out, r.finish(r.a.node.Label(i), telemetry.OutcomeOK, nil)
		}
		if !r.absorb(err) {
			return nil, r.finish(r.a.node.Label(i), telemetry.OutcomeError, err)
		}
	}
	return r.fallback()
}

// expired checks the caller's Deadline/Cancel gate. That budget belongs
// to the caller, so expiry surfaces directly — never absorbed.
func (r *request) expired() error {
	if r.op.cancel != nil {
		select {
		case <-r.op.cancel:
			return fmt.Errorf("nxzip: %s: %w", r.op.name, nx.ErrCanceled)
		default:
		}
	}
	if !r.op.deadline.IsZero() && time.Now().After(r.op.deadline) {
		return fmt.Errorf("nxzip: %s: %w", r.op.name, nx.ErrDeadlineExceeded)
	}
	return nil
}

// admit presents the request at the overload gate before any device
// work. A shed returns the gate's error; a brownout degrade marks the
// request software-only; an admit holds a slot until free (or until a
// batch releases its wave). noWait is for callers holding tickets of
// their own: a full gate answers admission.ErrWouldWait instead of
// queueing the request behind slots the caller itself must free. With
// admission off this is one atomic load.
func (r *request) admit(noWait bool) error {
	ctrl := r.a.admissionCtrl()
	if ctrl == nil {
		return nil
	}
	ticket, dec, err := ctrl.Admit(admission.AdmitRequest{
		Class:    admission.Class(r.a.class.Load()),
		Tenant:   r.a.nctx.ID(),
		Deadline: r.op.deadline,
		Cancel:   r.op.cancel,
		NoWait:   noWait,
	})
	r.ticket = ticket
	r.brownout = dec == admission.DecisionDegrade
	return err
}

// pick chooses the next attempt's device; false sends the request to
// software (brownout, pool unhealthy, or no hardware for the codec). A
// pinned stream stays on its device for the first attempt — unless that
// device is draining: history and resume state travel in the CRB, so the
// stream re-pins and the drain need not wait it out — and migrates the
// pin after a failure.
func (r *request) pick() (int, bool) {
	if r.brownout {
		return 0, false
	}
	if r.pin == nil {
		i, err := r.nctx.PickIndexCodec(r.op.need())
		return i, err == nil
	}
	cur := r.nctx.IndexOf(*r.pin)
	if r.attempts == 0 && !r.a.node.Draining(cur) {
		return cur, true
	}
	next, err := r.nctx.PickStickyAvoid(*r.pin)
	if err != nil {
		return cur, r.attempts == 0
	}
	*r.pin = next
	return r.nctx.IndexOf(next), true
}

// attempt runs the op once on device i, feeding the outcome to the
// health scoreboard under the request's ID.
func (r *request) attempt(i int) ([]byte, error) {
	ctx := r.nctx.At(i)
	if r.pin == nil {
		r.nctx.AcquireIndex(i)
	}
	var (
		out []byte
		err error
	)
	for again := true; again && err == nil; {
		if err = r.build(i); err == nil {
			err = ctx.SubmitInto(&r.crb, &r.csb, &r.rep)
			out, again, err = r.settle(&r.csb, &r.rep, err)
		}
	}
	if r.pin == nil {
		r.nctx.ReleaseIndexReq(i, err, r.id)
	} else {
		r.a.node.ReportResultReq(i, err, r.id)
	}
	return out, err
}

// build starts (or, for a member's target-space resubmit, continues) an
// attempt on device i: it acquires the VA spans of a mapped op on that
// device's MMU and fills r.crb. Buffers must be mapped on the device the
// request runs on, so the pick precedes the build.
func (r *request) build(i int) error {
	o := &r.op
	ctx := r.nctx.At(i)
	resubmit := r.srcVA != 0 // a member's source span stays mapped across its target-space rounds
	if !resubmit {
		r.dev = i
		r.attempts++
	}
	r.csb, r.rep = nx.CSB{}, nx.Report{}
	r.crb = nx.CRB{
		Wrap: o.format.wrap(), Input: o.src, Target: o.dst,
		History: o.history, DecompState: o.state, NotFinal: o.notFinal,
		ReqID: r.id, Hop: r.attempts - 1,
		Deadline: o.deadline, Cancel: o.cancel,
	}
	if r.rec != nil {
		r.crb.Spans = r.log
	}
	if o.pooledTarget() {
		r.crb.Target = r.buf[:0]
	}
	capOut := o.maxOutput
	switch o.kind {
	case opCompress, opDict, opSegment:
		capOut = 2*len(o.src) + 1024
		if codec := o.format.Codec(); codec != nx.CodecDeflate {
			r.crb.Func = codec.CompressFunc()
		} else if r.crb.Func = r.a.funcCode(); r.crb.Func == nx.FCCompressCannedDHT {
			r.crb.DHT = r.a.canned
		}
	case opDecompress:
		r.crb.Func = o.format.Codec().DecompressFunc()
		r.crb.MaxOutput, r.crb.TargetCap = o.maxOutput, o.maxOutput
	case opMember:
		if !resubmit {
			r.capOut = min(memberCapInitial, o.maxOutput)
		}
		capOut = r.capOut
		r.crb.Func = nx.FCDecompress
		r.crb.MaxOutput, r.crb.TargetCap, r.crb.FirstMemberOnly = o.maxOutput, capOut, true
	case opResume:
		r.crb.Func = nx.FCDecompress
	case opTranscode:
		r.crb.Func = nx.FCTranscode
		r.crb.SourceCodec, r.crb.TargetCodec = o.format.Codec(), o.to.Codec()
		// One Wrap field serves whichever side is DEFLATE; between two
		// block codecs the framing is moot.
		if r.crb.SourceCodec != nx.CodecDeflate {
			r.crb.Wrap = o.to.wrap()
		}
	}
	if !o.mapped() {
		return nil
	}
	var err error
	if !resubmit {
		if r.srcVA, err = ctx.AcquireVA(len(o.src)); err != nil {
			return err
		}
	}
	if r.dstVA, err = ctx.AcquireVA(capOut); err != nil {
		ctx.ReleaseVA(r.srcVA)
		r.srcVA = 0
		return err
	}
	r.crb.SourceVA, r.crb.TargetVA = r.srcVA, r.dstVA
	if o.kind == opCompress {
		r.crb.TargetCap = capOut
	}
	return nil
}

// settle closes one device round given its completion (the request's own
// blocks, or a batch entry's): it folds the round's accounting into r.m,
// classifies the completion code and recycles the round's VA spans — the
// model's data plane completes inside the submit, so each round releases
// its target span before the next size up is acquired. again asks for a
// resubmit: an opMember whose target filled before its budget did grows
// the buffer, the loop the production NX library runs on CC=13. Mapping
// a worst-case expansion buffer up front would cost more pages than the
// member itself (the engine translates only those the output reaches,
// but software still has to back them all); this way the common member
// costs one small mapping and a bomb is rejected after at most one
// buffer's worth of decode per size step.
func (r *request) settle(csb *nx.CSB, rep *nx.Report, err error) (out []byte, again bool, _ error) {
	o := &r.op
	earlier := r.m
	fillMetrics(&r.m, rep, csb)
	r.m.addCost(&earlier)
	switch {
	case err != nil:
	case csb.CC == nx.CCSuccess:
		out = csb.Output
		if o.pooledTarget() {
			r.buf = out[:0] // keep the (possibly grown) backing pooled
			out = bytes.Clone(out)
		}
	case csb.CC == nx.CCTargetSpace && o.kind == opMember && r.capOut < o.maxOutput:
		r.capOut = min(r.capOut*memberCapGrowth, o.maxOutput)
		again = true
	case csb.CC == nx.CCTargetSpace && o.kind == opMember:
		err = errExceeds(o.maxOutput)
	default:
		err = ccFail(o.name, csb)
	}
	ctx := r.nctx.At(r.dev)
	ctx.ReleaseVA(r.dstVA)
	r.dstVA = 0
	if !again {
		ctx.ReleaseVA(r.srcVA)
		r.srcVA = 0
	}
	return out, again, err
}

// absorb accounts a failed attempt and reports whether the request may
// go on to another device or to software: its cost moves to wasted, and
// if the failure is one re-dispatch can fix, the redispatch is counted
// and published as a failover event under the request's ID — the flight
// recorder chains the attempts' spans, these events and any quarantine
// the scoreboard issues back into one request history.
func (r *request) absorb(err error) bool {
	r.wasted.addCost(&r.m)
	r.m = Metrics{}
	if r.op.state != nil {
		// Once the engine has fed the session the resume state has
		// advanced; a replay would double-feed the chunk.
		if !nx.Retryable(err) {
			return false
		}
	} else if !failoverEligible(err) {
		return false
	}
	r.redispatches++
	if bus := r.a.node.Bus(); bus != nil {
		bus.Publish(telemetry.Event{Type: telemetry.EventFailover, Device: r.a.node.Label(r.dev), Req: r.id,
			Detail: fmt.Sprintf("re-dispatching after: %v", err)})
	}
	return true
}

// fallback produces the result on the software path. Its verdict is
// authoritative: an error here (genuinely corrupt input, output over
// budget) is the real answer, not the device flake that led here.
func (r *request) fallback() ([]byte, error) {
	r.attempts = max(r.attempts, 1) // the software pass is the attempt when no device ran
	err := r.expired()
	var out []byte
	if err == nil {
		out, err = r.a.soft(&r.op, &r.m)
	}
	if err != nil {
		return nil, r.finish("software", telemetry.OutcomeError, err)
	}
	r.a.met.fallback(r.op.need())
	if bus := r.a.node.Bus(); bus != nil {
		detail := fmt.Sprintf("software path after %d re-dispatches", r.redispatches)
		if r.brownout {
			detail = "software path by brownout: admission degraded the request under overload"
		}
		bus.Publish(telemetry.Event{Type: telemetry.EventFallback, Req: r.id, Detail: detail})
	}
	if r.op.dst != nil {
		out = append(r.op.dst[:0], out...)
	}
	return out, r.finish("software", telemetry.OutcomeDegraded, nil)
}

// finish completes the request's accounting: the failed attempts' cost
// and the re-dispatch count fold into the result's Metrics (which, on
// failure, are that cost alone), the redispatch counter advances, the
// digest and the tenant observation are written, and a terminal error is
// stamped with the RequestID when a recorder can resolve it.
func (r *request) finish(device string, outcome telemetry.Outcome, err error) error {
	r.m.addCost(&r.wasted)
	r.m.Redispatches = r.redispatches
	if r.redispatches > 0 {
		r.a.met.redispatches.Add(int64(r.redispatches))
	}
	r.digest(device, outcome)
	if r.rec != nil {
		err = reqError(r.id, err)
	}
	return err
}
