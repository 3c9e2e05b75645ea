package nx

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"nxzip/internal/checksum"
	"nxzip/internal/deflate"
	"nxzip/internal/faultinject"
	"nxzip/internal/freelist"
	"nxzip/internal/lz77"
	"nxzip/internal/nmmu"
	"nxzip/internal/pipeline"
)

// EngineConfig assembles an engine model.
type EngineConfig struct {
	Pipeline pipeline.Config
	LZ       lz77.HWParams
	// Codecs advertises which codec families this engine implements.
	// The zero value means all of them, so existing configurations keep
	// serving everything; a restricted set makes the engine NACK
	// out-of-set requests with CCInvalidCRB, and the topology layer
	// routes around it.
	Codecs CodecSet
}

// P9Engine returns the POWER9 NX GZIP engine configuration.
func P9Engine() EngineConfig {
	return EngineConfig{Pipeline: pipeline.P9(), LZ: lz77.P9HWParams()}
}

// Z15Engine returns the z15 zEDC engine configuration.
func Z15Engine() EngineConfig {
	return EngineConfig{Pipeline: pipeline.Z15(), LZ: lz77.Z15HWParams()}
}

// Engine is a configuration and a ledger. A request is a function of its
// CRB and the configuration, and the model clock never reads host time, so
// concurrent Process calls compute side by side on host memory of their
// own (workArea) and meet only at mu, to add their completions to the
// ledger. Which requests an engine is charged for is the submitter's deal
// (Context.run); in what order the host ran them leaves no trace.
type Engine struct {
	cfg EngineConfig
	mmu *nmmu.MMU
	inj atomic.Pointer[faultinject.Injector]

	// The ledger, under mu.
	mu          sync.Mutex
	requests    int64
	busyCycles  int64
	inBytes     int64
	outBytes    int64
	stageCycles pipeline.Breakdown // per-stage sums across all requests
	ccCounts    [ccCount]int64     // completions by CC
	lastLZ      lz77.HWStats
}

// NewEngine builds an engine bound to an MMU (nil disables translation,
// for bare functional use).
func NewEngine(cfg EngineConfig, mmu *nmmu.MMU) *Engine {
	return &Engine{cfg: cfg, mmu: mmu}
}

// workArea is the host memory one compress computes in — the LZ stage's
// table, the token buffer, the encoder's tables — the model's stand-in for
// SRAM that on silicon is the engine's. It is lent for the length of one
// compress, to whichever engine: the matcher takes the geometry of the
// engine in hand (HWMatcher.Reset re-slices its table; a list per geometry
// would keep Limit areas for every geometry an ablation sweeps), and
// neither tokens nor tables outlive the call. A compress that splits its LZ
// stage borrows a second area for the tail and returns it when the stage is
// done, so no more than twice the compresses in flight are ever built. The
// list keeps at most freelist.Limit areas, each a matcher and the largest
// token buffer it has held. An area goes back filed under the key of the
// context that drained the request (xlate.area), and that key's next
// compress gets it back — the area its core last wrote, not whichever a
// neighbour returned last; a key with nothing filed takes the newest area,
// so none is built while one lies idle.
type workArea struct {
	matcher lz77.HWMatcher
	tokBuf  []lz77.Token
	enc     deflate.StreamEncoder

	// As the tail of a split compress: tail and wait are runTail and
	// awaitTail, stored when the area is built so that neither a go
	// statement on one nor handing the other to the head allocates. The
	// tail tokenizes src from seam on into buf and then fires done.
	tail, wait func()
	done       chan struct{}
	buf        []lz77.Token
	src        []byte
	seam       int
}

func newWorkArea() *workArea {
	w := &workArea{done: make(chan struct{}, 1)}
	w.tail, w.wait = w.runTail, w.awaitTail
	return w
}

func (w *workArea) runTail() {
	w.matcher.TokenizeTail(w.buf, w.src, w.seam)
	w.done <- struct{}{}
}

// awaitTail returns once runTail has. The head yields its P until then
// rather than park: a parked head is woken onto the tail's P, and the rest
// of the compress — and whatever its caller does next — runs on the other
// core.
func (w *workArea) awaitTail() {
	for len(w.done) == 0 {
		runtime.Gosched()
	}
	<-w.done
}

var workAreas = freelist.New(newWorkArea)

// splitMin is the smallest source whose LZ stage runs as a split operation
// (lz77.TokenizeTail): its tail on a second goroutine, when a P would
// otherwise sit idle to run it (idleP).
const splitMin = 512 << 10

// running counts the goroutines computing a request in an engine of this
// process: every caller between parse and completion, the tail of every
// split compress and the checksum follower of every decompress that has
// one running.
var running atomic.Int32

// idleP counts a tail or a follower into running when the goroutines
// already there leave one of GOMAXPROCS Ps free, and reports whether it
// did. A caller that runs a request per core — a ParallelWriter or a
// ParallelReader, say — thus runs serial once its workers are busy: a
// helper would take a core from another request instead of an idle one.
func idleP() bool {
	procs := int32(runtime.GOMAXPROCS(0))
	for {
		n := running.Load()
		if n >= procs {
			return false
		}
		if running.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// followers lends the checksum followers decompresses sum beside
// (checksum.Follower), filed under the same keys as work areas. A
// follower's goroutine starts only onto an idle P.
var followers = freelist.New(func() *checksum.Follower { return checksum.NewFollower(idleP) })

// fileFollower takes f back once its goroutine, if one ran, has signalled,
// counts that goroutine out of running and files f under key.
func fileFollower(key uint64, f *checksum.Follower) {
	if f.Release() {
		running.Add(-1)
	}
	followers.PutFor(key, f)
}

// Config returns the engine configuration.
func (e *Engine) Config() EngineConfig { return e.cfg }

// SetInjector installs (or, with nil, removes) the fault injector
// consulted after each successful completion to force CSB error codes.
func (e *Engine) SetInjector(inj *faultinject.Injector) { e.inj.Store(inj) }

// injectCC flips a successful completion into an injected error CC:
// CRC mismatch (inline read-back verify failed), data check, or invalid
// CRB. The work was done — cycles stand — but the output is withheld,
// exactly as hardware suppresses the target store on a failed verify.
// Resume requests are exempt: hardware checkpoints suspend/resume state
// only on successful completion, but the model's session advances as it
// feeds, so an injected failure here would leave state the submitter
// cannot safely replay.
func (e *Engine) injectCC(crb *CRB, csb *CSB) {
	inj := e.inj.Load()
	if inj == nil || csb.CC != CCSuccess || crb.DecompState != nil {
		return
	}
	var cc CC
	switch {
	case inj.Decide(faultinject.CRCError):
		cc = CCCRCError
	case inj.Decide(faultinject.DataCheck):
		cc = CCDataCorrupt
	case inj.Decide(faultinject.InvalidCRB):
		cc = CCInvalidCRB
	default:
		return
	}
	csb.CC = cc
	csb.Detail = "injected " + cc.String()
	csb.Output = nil
	csb.TPBC = 0
}

// Process executes one request for the given address space and returns the
// completion status block. It never returns a Go error for data-plane
// problems — those are CSB completion codes, exactly as on hardware.
func (e *Engine) Process(pid nmmu.PID, crb *CRB) *CSB {
	csb := &CSB{}
	e.ProcessInto(pid, crb, csb)
	return csb
}

// ProcessInto is Process writing the completion into a caller-owned
// status block (reset first), so pooled submitters allocate nothing per
// request. With CRB.Target set the output lands in caller memory too.
func (e *Engine) ProcessInto(pid nmmu.PID, crb *CRB, csb *CSB) {
	e.processInto(pid, crb, csb, 0)
}

// processInto is ProcessInto borrowing a compress's work area under the
// given key (Context.run passes the draining context's).
func (e *Engine) processInto(pid nmmu.PID, crb *CRB, csb *CSB, area uint64) {
	csb.reset()
	if !e.execute(pid, crb, csb, area) {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.requests++
	e.busyCycles += csb.Cycles.Total
	e.inBytes += int64(csb.SPBC)
	e.outBytes += int64(csb.TPBC)
	addStages(&e.stageCycles, csb.Cycles)
	if csb.CC >= 0 && csb.CC < ccCount {
		e.ccCounts[csb.CC]++
	}
	if csb.LZ != (lz77.HWStats{}) {
		e.lastLZ = csb.LZ
	}
}

// addStages adds one breakdown to a sum of them, stage by stage.
func addStages(sum *pipeline.Breakdown, b pipeline.Breakdown) {
	to, from := stageFields(sum), stageFields(&b)
	for st, f := range to {
		if f != nil {
			*f += *from[st]
		}
	}
	sum.Total += b.Total
}

// execute runs the request into csb with no lock held. It reports whether
// the request entered the pipeline: one refused at CRB parse costs nothing
// and is not on the ledger.
func (e *Engine) execute(pid nmmu.PID, crb *CRB, csb *CSB, area uint64) bool {
	// Capability gate before any work: a function code outside the
	// engine's advertised codec set is NACKed at CRB parse, exactly as
	// hardware rejects an unimplemented function code. No cycles charged
	// — the request never entered the pipeline.
	if need := crb.RequiredCodecs(); !e.cfg.Codecs.Supports(need) {
		csb.CC = CCInvalidCRB
		csb.Detail = "codec not supported: " + need.String() + " (engine serves " + e.cfg.Codecs.String() + ")"
		return false
	}

	// Address translation follows the data. The source is read whole, so
	// its range is translated before the operation, and a source fault
	// costs no data work; so is the target's first page, which every
	// outcome writes and where a demand-paged target faults first. The
	// rest of the target is translated as far as the operation reached it
	// (Engine.reach): TargetCap is a limit, not work. A fault suspends the
	// job; software resolves it and resubmits, and the engine restarts the
	// request (P9 semantics).
	x := xlate{mmu: e.mmu, pid: pid, area: area}
	err := x.operand(csb, crb.SourceDDE, crb.SourceVA, len(crb.Input), false)
	if err == nil {
		err = x.operand(csb, crb.TargetDDE, crb.TargetVA, 1, false)
	}
	if err != nil {
		return e.untranslated(csb, err, x.cycles)
	}

	running.Add(1)
	defer running.Add(-1)
	switch crb.Func {
	case FCCompressFHT, FCCompressDHT, FCCompressCannedDHT:
		e.compress(crb, csb, &x)
	case FCDecompress:
		if crb.DecompState != nil {
			e.decompressResume(crb, csb, &x)
		} else {
			e.decompress(crb, csb, &x)
		}
	case FC842Compress, FCLZ4Compress:
		e.blockCompress(crb, csb, &x, crb.Func.Codec())
	case FC842Decompress, FCLZ4Decompress:
		e.blockDecompress(crb, csb, &x, crb.Func.Codec())
	case FCTranscode:
		e.transcode(crb, csb, &x)
	case FCMove:
		e.move(crb, csb, &x)
	default:
		csb.CC = CCInvalidCRB
		csb.Detail = "unknown function code"
	}
	if csb.CC == CCTranslationFault {
		return true // a reached target page faulted: on the ledger, nothing delivered
	}

	e.injectCC(crb, csb)

	if crb.SyncSubmit && e.cfg.Pipeline.SyncSetupCycles > 0 {
		// Synchronous-instruction dispatch replaces the queued setup cost.
		delta := e.cfg.Pipeline.SetupCycles - e.cfg.Pipeline.SyncSetupCycles
		if delta > 0 && csb.Cycles.Setup >= e.cfg.Pipeline.SetupCycles {
			csb.Cycles.Setup -= delta
			csb.Cycles.Total -= delta
		}
	}
	if crb.Chained && e.cfg.Pipeline.ChainSetupCycles > 0 {
		// Chained behind the previous envelope entry: descriptor advance,
		// not a fresh paste round trip.
		delta := e.cfg.Pipeline.SetupCycles - e.cfg.Pipeline.ChainSetupCycles
		if delta > 0 && csb.Cycles.Setup >= e.cfg.Pipeline.SetupCycles {
			csb.Cycles.Setup -= delta
			csb.Cycles.Total -= delta
		}
	}
	if crb.ChainedComplete && e.cfg.Pipeline.ChainCompleteCycles > 0 {
		// A later entry carries the envelope's interrupt/credit return;
		// this one only stores its CSB.
		delta := e.cfg.Pipeline.CompleteCycles - e.cfg.Pipeline.ChainCompleteCycles
		if delta > 0 && csb.Cycles.Complete >= e.cfg.Pipeline.CompleteCycles {
			csb.Cycles.Complete -= delta
			csb.Cycles.Total -= delta
		}
	}
	return true
}

func targetCap(crb *CRB) int {
	if crb.TargetCap > 0 {
		return crb.TargetCap
	}
	return 2*len(crb.Input) + 1024
}

// filled is how much of the target an operation that produced n bytes
// wrote: all of them, or — overflow — the whole budget.
func filled(crb *CRB, n int) (reached int, overflow bool) {
	if tc := targetCap(crb); n > tc {
		return tc, true
	}
	return n, false
}

func asFault(err error) *nmmu.Fault {
	if err == nil {
		// Early out before declaring the target: errors.As forces its
		// target to escape, which would cost an allocation on every
		// translation even when nothing faulted.
		return nil
	}
	var f *nmmu.Fault
	if errors.As(err, &f) {
		return f
	}
	return nil
}

// xlate is one request's translation account: whose address space, and
// the NMMU cycles charged so far. With no MMU it translates nothing (bare
// engines, and a transcode's inner encode pass). It also carries the key a
// compress files its work area under.
type xlate struct {
	mmu    *nmmu.MMU
	pid    nmmu.PID
	cycles int64
	area   uint64
}

// operand translates the pages under the first n bytes of one operand — a
// flat VA, or the extents of a DDE in order — charging the account and the
// CSB's ERAT split. rest skips the operand's first page: it was translated
// before the operation. A zero VA is pre-pinned and costs nothing.
func (x *xlate) operand(csb *CSB, dde *DDE, va uint64, n int, rest bool) error {
	if x.mmu == nil {
		return nil
	}
	if dde == nil {
		return x.extent(csb, va, n, rest)
	}
	extents, err := dde.flatten()
	if err != nil {
		return err
	}
	for _, e := range extents {
		if e.VA == 0 || e.Len == 0 {
			continue
		}
		take := min(e.Len, n)
		if err := x.extent(csb, e.VA, take, rest); err != nil {
			return err
		}
		n, rest = n-take, false
	}
	return nil
}

// extent translates the pages under [va, va+n), all but the first when
// rest is set.
func (x *xlate) extent(csb *CSB, va uint64, n int, rest bool) error {
	if va == 0 {
		return nil
	}
	if rest {
		ps := x.mmu.Config().PageSize
		skip := ps - int(va%uint64(ps))
		va, n = va+uint64(skip), n-skip
	}
	rs, err := x.mmu.TranslateRangeStats(x.pid, va, n)
	x.cycles += rs.Cycles
	csb.ERATHits += rs.Hits
	csb.ERATMisses += rs.Misses
	return err
}

// reach translates the target as far as the operation got — n bytes: TPBC
// on success, the whole budget when it ran out, nothing past the first
// page when the data stopped it — and returns the request's translation
// cycles for the pipeline formula. When a reached page faults it completes
// csb as that fault and reports false: the output is discarded and the
// attempt costs what a fault before the operation costs.
func (e *Engine) reach(x *xlate, crb *CRB, csb *CSB, n int) (int64, bool) {
	if err := x.operand(csb, crb.TargetDDE, crb.TargetVA, max(1, n), true); err != nil {
		e.untranslated(csb, err, x.cycles)
		return 0, false
	}
	return x.cycles, true
}

// untranslated completes a request whose operand did not translate. A
// fault still consumed setup plus the translation work up to it, and is
// the only thing the CSB reports besides the ERAT split; any other error
// is a malformed descriptor, refused at parse (false).
func (e *Engine) untranslated(csb *CSB, err error, translateCycles int64) bool {
	f := asFault(err)
	if f == nil {
		csb.CC = CCInvalidCRB
		csb.Detail = err.Error()
		return false
	}
	*csb = CSB{CC: CCTranslationFault, FaultVA: f.VA, ERATHits: csb.ERATHits, ERATMisses: csb.ERATMisses}
	csb.Cycles = pipeline.Breakdown{
		Setup:     e.cfg.Pipeline.SetupCycles,
		Translate: translateCycles,
		Complete:  e.cfg.Pipeline.CompleteCycles,
	}
	csb.Cycles.Total = csb.Cycles.Setup + csb.Cycles.Translate + csb.Cycles.Complete
	return true
}

// compress runs the DEFLATE compression path: hardware LZ, table
// selection per function code, inline checksum, framing.
func (e *Engine) compress(crb *CRB, csb *CSB, x *xlate) {
	input := crb.Input
	if crb.NotFinal && crb.Wrap != WrapRaw {
		csb.CC = CCInvalidCRB
		csb.Detail = "stream segments must use raw wrap"
		return
	}
	if uint64(len(input)) > lz77.MaxInput {
		csb.CC = CCInvalidCRB
		csb.Detail = fmt.Sprintf("source of %d bytes exceeds the LZ stage's %d", len(input), lz77.MaxInput)
		return
	}
	w := workAreas.GetFor(x.area)
	defer workAreas.PutFor(x.area, w)
	w.matcher.Reset(e.cfg.LZ)
	var (
		tokens  []lz77.Token
		lzStats lz77.HWStats
	)
	if len(input) >= splitMin && idleP() {
		tokens, lzStats = e.tokenizeSplit(w, crb.History, input, x.area)
	} else {
		tokens, lzStats = w.matcher.TokenizeWithHistory(w.tokBuf[:0], crb.History, input)
	}
	w.tokBuf = tokens // keep any growth for the next request
	csb.LZ = lzStats

	var (
		mode deflate.BlockMode
		dht  *deflate.DHT
	)
	switch crb.Func {
	case FCCompressFHT:
		mode = deflate.ModeFixed
	case FCCompressDHT:
		mode = deflate.ModeDynamic
		dht = e.sampleDHT(&w.enc, tokens)
	case FCCompressCannedDHT:
		mode = deflate.ModeDynamic
		dht = crb.DHT
		if dht == nil {
			csb.CC = CCInvalidCRB
			csb.Detail = "canned-DHT compression without a DHT"
			return
		}
	}

	// Frame inline on the output path, exactly as the hardware's wrap
	// function codes do on the target DMA stream: header, DEFLATE body,
	// trailer, all appended to one buffer. With CRB.Target set that
	// buffer is caller memory and the whole path allocates nothing.
	out := crb.Target[:0]
	if crb.Target == nil {
		out = make([]byte, 0, len(input)/2+128)
	}
	switch crb.Wrap {
	case WrapGzip:
		out = deflate.AppendGzipHeader(out)
	case WrapZlib:
		out = deflate.AppendZlibHeader(out)
	}
	out, err := w.enc.EncodeStream(out, tokens, input, mode, dht, !crb.NotFinal)
	if err != nil {
		csb.CC = CCInvalidCRB
		csb.Detail = err.Error()
		return
	}
	crc, adler := checksum.SumBoth(input)
	switch crb.Wrap {
	case WrapGzip:
		out = deflate.AppendGzipTrailer(out, crc, len(input))
	case WrapZlib:
		out = deflate.AppendZlibTrailer(out, adler)
	}
	// The engine discovers an overflow while draining output, with the
	// target full: a full pass either way.
	reached, overflow := filled(crb, len(out))
	translateCycles, ok := e.reach(x, crb, csb, reached)
	if !ok {
		return
	}
	// Only the generate-DHT function code pays table-build latency; canned
	// tables arrive with the CRB.
	csb.Cycles = e.cfg.Pipeline.Compress(len(input), len(out), lzStats.Cycles, translateCycles, crb.Func == FCCompressDHT)
	if overflow {
		csb.CC = CCTargetSpace
		return
	}
	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = len(input)
	csb.TPBC = len(out)
	csb.CRC32 = crc
	csb.Adler32 = adler
}

// tokenizeSplit is the LZ stage of a compress as a split operation: a
// second area, borrowed under the same key, tokenizes the tail on a
// goroutine of its own while the caller runs the head in w, both into w's
// token buffer. The tokens and HWStats are one pass's. The seam sits two
// windows past the middle: the tail replays one window before it parses,
// and starts a wake-up late, and when it is done first the head finds it
// done instead of waiting. The second area goes back before the first,
// which stays the key's newest: the next compress takes the same two in
// the same roles. The caller has counted the tail into running (idleP);
// it is counted out once the head has waited for it.
func (e *Engine) tokenizeSplit(w *workArea, history, input []byte, key uint64) ([]lz77.Token, lz77.HWStats) {
	t := workAreas.GetFor(key)
	t.matcher.Reset(e.cfg.LZ)
	p := t.matcher.Params()
	seam := len(input)/2 + 2*p.MaxDist
	seam -= seam % p.InputWidth
	t.buf, t.src, t.seam = slices.Grow(w.tokBuf[:0], len(input)+lz77.SeamSpan), input, seam
	go t.tail()
	tokens, st, _ := w.matcher.TokenizeHead(t.buf, history, input, seam, &t.matcher, t.wait)
	running.Add(-1)
	t.buf, t.src = nil, nil
	workAreas.PutFor(key, t)
	return tokens, st
}

// sampleDHT builds the single-pass dynamic table: frequencies are counted
// only over tokens covering the first DHTSampleBytes of input, then every
// symbol receives a +1 floor so the table is complete (the hardware
// requires a decodable-by-construction table because data after the sample
// may use any symbol). It lives in the encoder's scratch until the next one.
func (e *Engine) sampleDHT(enc *deflate.StreamEncoder, tokens []lz77.Token) *deflate.DHT {
	sampleBytes := e.cfg.Pipeline.DHTSampleBytes
	covered := 0
	end := 0
	for i, t := range tokens {
		if covered >= sampleBytes {
			break
		}
		if t.IsMatch() {
			covered += t.Length()
		} else {
			covered++
		}
		end = i + 1
	}
	return enc.SampleDHT(tokens[:end])
}

// decompress inflates with both checksums taken beside the decode: a
// follower, borrowed under the context's key, sums each stripe of output
// as it becomes final, on an idle P when there is one, and a framing
// helper checks its trailer against the follower's sum. Whatever the
// outcome, the follower is filed back only once its goroutine is done.
func (e *Engine) decompress(crb *CRB, csb *CSB, x *xlate) {
	var (
		out      []byte
		err      error
		consumed = len(crb.Input)
	)
	f := followers.GetFor(x.area)
	defer fileFollower(x.area, f)
	// Dst threads the caller-owned target buffer into the inflate loop so
	// a pooled decompression allocates nothing when the output fits.
	opts := deflate.InflateOptions{MaxOutput: decodeLimit(crb), Dst: crb.Target, Follower: f}
	switch {
	case crb.Wrap == WrapGzip && crb.FirstMemberOnly:
		out, consumed, _, err = deflate.DecompressGzipTail(crb.Input, opts)
	case crb.Wrap == WrapGzip:
		out, _, err = deflate.DecompressGzip(crb.Input, opts)
	case crb.Wrap == WrapZlib:
		out, _, err = deflate.DecompressZlib(crb.Input, opts)
	default:
		out, err = deflate.Decompress(crb.Input, opts)
	}
	if err != nil {
		e.decodeFailed(x, crb, csb, err, decodeLimit(crb))
		return
	}
	reached, overflow := filled(crb, len(out))
	translateCycles, ok := e.reach(x, crb, csb, reached)
	if !ok {
		return
	}
	csb.Cycles = e.cfg.Pipeline.Decompress(consumed, len(out), translateCycles)
	if overflow {
		csb.CC = CCTargetSpace
		return
	}
	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = consumed
	csb.TPBC = len(out)
	csb.CRC32, csb.Adler32 = f.Finish(out)
}

// decodeFailed completes a request whose decode stopped on err. Detection
// cost: the engine read the input before tripping. A tripped budget had
// filled the target — limit bytes of it — when it tripped; corrupt data is
// charged nothing past the target's first page.
func (e *Engine) decodeFailed(x *xlate, crb *CRB, csb *CSB, err error, limit int) {
	cc := decodeCC(err)
	if cc != CCTargetSpace {
		limit = 0
	}
	translateCycles, ok := e.reach(x, crb, csb, limit)
	if !ok {
		return
	}
	csb.CC = cc
	csb.Detail = err.Error()
	csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), 0, translateCycles)
}

// blockCompress runs any byte-aligned block codec (842, LZ4) through one
// generalized path: codec table lookup, compress, inline CRC over the
// input, and the per-codec cycle model — the ingest-lane multiplier
// scales how many input bytes the match pipeline consumes per cycle.
func (e *Engine) blockCompress(crb *CRB, csb *CSB, x *xlate, codec Codec) {
	bt := blockCodecs[codec]
	if bt.compress == nil {
		csb.CC = CCInvalidCRB
		csb.Detail = "no block compressor for codec " + codec.String()
		return
	}
	if bt.maxInput > 0 && len(crb.Input) > bt.maxInput {
		csb.CC = CCInvalidCRB
		csb.Detail = fmt.Sprintf("source of %d bytes exceeds the %s encoder's %d", len(crb.Input), codec, bt.maxInput)
		return
	}
	out := bt.compress(crb.Input)
	reached, overflow := filled(crb, len(out))
	translateCycles, ok := e.reach(x, crb, csb, reached)
	if !ok {
		return
	}
	ingest := int64(len(crb.Input)/(e.cfg.LZ.InputWidth*bt.ingestLanes) + 1)
	csb.Cycles = e.cfg.Pipeline.Compress(len(crb.Input), len(out), ingest, translateCycles, false)
	if overflow {
		csb.CC = CCTargetSpace
		return
	}
	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = len(crb.Input)
	csb.TPBC = len(out)
	csb.CRC32 = checksum.Sum32(crb.Input)
}

// blockDecompress is the matching generalized decompress path.
func (e *Engine) blockDecompress(crb *CRB, csb *CSB, x *xlate, codec Codec) {
	bt := blockCodecs[codec]
	if bt.decompress == nil {
		csb.CC = CCInvalidCRB
		csb.Detail = "no block decompressor for codec " + codec.String()
		return
	}
	out, err := bt.decompress(crb.Input, decodeLimit(crb))
	if err != nil {
		e.decodeFailed(x, crb, csb, err, decodeLimit(crb))
		return
	}
	reached, overflow := filled(crb, len(out))
	translateCycles, ok := e.reach(x, crb, csb, reached)
	if !ok {
		return
	}
	csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), len(out), translateCycles)
	if overflow {
		csb.CC = CCTargetSpace
		return
	}
	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = len(crb.Input)
	csb.TPBC = len(out)
	csb.CRC32 = checksum.Sum32(out)
}

// transcode decodes CRB.SourceCodec input and re-encodes the plaintext
// as CRB.TargetCodec without leaving the engine — the paper's
// recompression pipeline (e.g. LZ4 ingest → DEFLATE at rest) as one
// request. Setup/complete are paid once; the decode pass's translate,
// DMA-in and decode cycles fold into the encode pass's breakdown. The
// intermediate plaintext never crosses the bus, so there is no DMA-out
// charge for stage one.
func (e *Engine) transcode(crb *CRB, csb *CSB, x *xlate) {
	if crb.SourceCodec == crb.TargetCodec {
		csb.CC = CCInvalidCRB
		csb.Detail = "transcode with identical source and target codec " + crb.SourceCodec.String()
		return
	}
	limit := crb.MaxOutput
	if limit <= 0 {
		limit = 1 << 30
	}
	var (
		plain []byte
		err   error
	)
	if crb.SourceCodec == CodecDeflate {
		opts := deflate.InflateOptions{MaxOutput: limit}
		switch crb.Wrap {
		case WrapGzip:
			plain, _, err = deflate.DecompressGzip(crb.Input, opts)
		case WrapZlib:
			plain, _, err = deflate.DecompressZlib(crb.Input, opts)
		default:
			plain, err = deflate.Decompress(crb.Input, opts)
		}
	} else {
		plain, err = blockCodecs[crb.SourceCodec].decompress(crb.Input, limit)
	}
	if err != nil {
		// The intermediate plaintext is the engine's own: a budget tripped
		// here has written nothing to the target.
		e.decodeFailed(x, crb, csb, err, 0)
		return
	}

	// Re-encode through the regular compress paths so wrap, checksum and
	// target-space handling are not duplicated; translation — the source's
	// and, once the encode pass says how far it got, the target's — is
	// charged on the decode pass, so the inner request translates nothing.
	inner := CRB{
		Func:      compressFunc(crb.TargetCodec),
		Wrap:      crb.Wrap,
		Input:     plain,
		TargetCap: crb.TargetCap,
		Target:    crb.Target,
	}
	if crb.TargetCodec == CodecDeflate {
		e.compress(&inner, csb, &xlate{area: x.area})
	} else {
		e.blockCompress(&inner, csb, &xlate{}, crb.TargetCodec)
	}
	reached := csb.TPBC
	if csb.CC == CCTargetSpace {
		reached = targetCap(&inner)
	}
	translateCycles, ok := e.reach(x, crb, csb, reached)
	if !ok {
		return
	}
	dec := e.cfg.Pipeline.Decompress(len(crb.Input), len(plain), translateCycles)
	csb.Cycles.Translate += dec.Translate
	csb.Cycles.DMAIn += dec.DMAIn
	csb.Cycles.Decode += dec.Decode
	csb.Cycles.Total += dec.Translate + dec.DMAIn + dec.Decode
	if csb.CC == CCSuccess {
		// Source-processed counts the codec-side input, not the
		// intermediate plaintext.
		csb.SPBC = len(crb.Input)
	}
}

// move is the checksum/copy offload: data streams through the DMA path
// untouched while the checksum units run. Useful on its own (CRC offload)
// and as the engine's data-movement baseline.
func (e *Engine) move(crb *CRB, csb *CSB, x *xlate) {
	reached, overflow := filled(crb, len(crb.Input))
	translateCycles, ok := e.reach(x, crb, csb, reached)
	if !ok {
		return
	}
	if overflow {
		csb.CC = CCTargetSpace
		csb.Cycles = e.cfg.Pipeline.Decompress(len(crb.Input), 0, translateCycles)
		return
	}
	out := append([]byte{}, crb.Input...)
	csb.CC = CCSuccess
	csb.Output = out
	csb.SPBC = len(crb.Input)
	csb.TPBC = len(out)
	csb.CRC32, csb.Adler32 = checksum.SumBoth(crb.Input)
	// Pure data movement: bounded by the DMA width on both sides.
	b := pipeline.Breakdown{
		Setup:     e.cfg.Pipeline.SetupCycles,
		Translate: translateCycles,
		DMAIn:     int64(len(crb.Input)+e.cfg.Pipeline.DMABytesPerCycle-1) / int64(e.cfg.Pipeline.DMABytesPerCycle),
		Complete:  e.cfg.Pipeline.CompleteCycles,
	}
	b.DMAOut = b.DMAIn
	stage := b.DMAIn
	if b.Translate > stage {
		stage = b.Translate
	}
	b.Total = b.Setup + stage + b.Complete
	csb.Cycles = b
}

// Counters is the engine's lifetime accounting.
type Counters struct {
	Requests   int64
	BusyCycles int64
	InBytes    int64
	OutBytes   int64
	// StageCycles sums each pipeline stage's cycles across every request
	// this engine ran (Total included, so idle = elapsed - Total).
	StageCycles pipeline.Breakdown
	// CCCounts is the number of completions per CC code, indexed by CC.
	CCCounts [ccCount]int64
	// LastLZ is CSB.LZ of the last completion added that ran the LZ stage.
	LastLZ lz77.HWStats
}

// Counters returns a snapshot of lifetime counters.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock() // the ledger only: no request computes under it
	return Counters{
		Requests:    e.requests,
		BusyCycles:  e.busyCycles,
		InBytes:     e.inBytes,
		OutBytes:    e.outBytes,
		StageCycles: e.stageCycles,
		CCCounts:    e.ccCounts,
		LastLZ:      e.lastLZ,
	}
}
