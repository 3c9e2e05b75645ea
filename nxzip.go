// Package nxzip is a faithful, fully self-contained reproduction of the
// IBM POWER9 / z15 on-chip data compression accelerator (Abali et al.,
// "Data compression accelerator on IBM POWER9 and z15 processors", ISCA
// 2020) as a Go library.
//
// The accelerator is modelled functionally and cycle-approximately: every
// request produces real DEFLATE/gzip/zlib (or 842) bytes — interoperable
// with zlib, gzip and Go's compress/* packages — using the hardware's
// algorithmic choices (banked single-probe LZ77 match search, single-pass
// sampled dynamic-Huffman tables, inline CRC/Adler checksums), and every
// request is accounted in engine cycles through a documented pipeline
// model (request setup, NMMU address translation, stage line rates,
// completion). The system integration the paper emphasizes is modelled
// too: VAS send windows with paste/credit semantics, a shared receive
// FIFO, and the translation-fault → touch → resubmit protocol.
//
// Quick start:
//
//	acc := nxzip.Open(nxzip.P9())
//	defer acc.Close()
//	gz, m, err := acc.CompressGzip(data)      // valid gzip bytes
//	plain, _, err := acc.DecompressGzip(gz)   // or feed gz to gunzip
//	fmt.Println(m.Ratio, m.Throughput(), m.DeviceTime)
//
// The software baseline the paper compares against is also included:
//
//	gz, err := nxzip.SoftwareGzip(data, 6)    // zlib-equivalent levels 1..9
package nxzip

import (
	"sync/atomic"
	"time"

	"nxzip/internal/deflate"
	"nxzip/internal/lz77"
	"nxzip/internal/nmmu"
	"nxzip/internal/nx"
	"nxzip/internal/pipeline"
	"nxzip/internal/telemetry"
	"nxzip/internal/topology"
)

// Config selects and tunes an accelerator model.
type Config struct {
	// Device is the underlying device configuration. Use P9() / Z15() for
	// the shipped configurations.
	Device nx.DeviceConfig
	// TableMode selects the Huffman strategy for CompressGzip and the
	// Writer: TableDynamic (default, engine-generated), TableFixed, or
	// TableCanned (install a table with Accelerator.TrainTable).
	TableMode TableMode
}

// TableMode selects the engine's Huffman table strategy.
type TableMode int

const (
	// TableDynamic builds a table per request from an input sample
	// (single-pass DHT, the accelerator's flagship mode).
	TableDynamic TableMode = iota
	// TableFixed uses the DEFLATE static table (lowest latency).
	TableFixed
	// TableCanned uses the table installed with Accelerator.TrainTable:
	// no per-request generation latency, ratio close to dynamic when the
	// data matches the training sample (experiment E11).
	TableCanned
)

// P9 returns the POWER9 NX GZIP configuration (~8 GB/s compression).
func P9() Config { return Config{Device: nx.P9Device()} }

// Z15 returns the z15 Integrated Accelerator for zEDC configuration
// (double the POWER9 rate).
func Z15() Config { return Config{Device: nx.Z15Device()} }

// Metrics reports the device-model accounting for one operation.
type Metrics struct {
	// InBytes / OutBytes are the source/target processed byte counts
	// (the CSB's SPBC/TPBC).
	InBytes  int
	OutBytes int
	// Ratio is input/output for compression, output/input for
	// decompression (bigger is better in both directions).
	Ratio float64
	// DeviceCycles is the total engine-cycle cost, including faulted
	// attempts; DeviceTime is the same at the engine clock.
	DeviceCycles int64
	DeviceTime   time.Duration
	// Faults counts translation-fault resubmissions.
	Faults int
	// PasteRejects counts VAS paste bounces (credit exhaustion, FIFO
	// full, injected rejects) absorbed while submitting.
	PasteRejects int
	// BackoffWaits counts the exponential-backoff sleeps taken while the
	// paste kept bouncing with nothing to drain; BackoffTime is their
	// wall-clock sum. Non-zero values mean the device was saturated (or
	// its window wedged) when this request arrived.
	BackoffWaits int
	BackoffTime  time.Duration
	// WastedCycles is the engine-cycle cost of work that did not produce
	// the result: faulted attempts plus backoff converted at the engine
	// clock. Included in DeviceCycles.
	WastedCycles int64
	// QueueWait is the request's receive-FIFO residency (paste accept to
	// engine dequeue) for the winning attempt — the queueing component of
	// latency, as distinct from the engine's DeviceTime.
	QueueWait time.Duration
	// CRC32 and Adler32 are computed inline over the plaintext.
	CRC32   uint32
	Adler32 uint32
	// Degraded is set when the result was produced by the software
	// fallback path because no healthy device could complete the request.
	Degraded bool
	// Redispatches counts device-attempt failures absorbed by re-dispatch
	// to another device (0 on the common first-try-success path).
	Redispatches int
}

// Throughput returns the effective device rate in bytes/second for the
// operation's uncompressed side.
func (m *Metrics) Throughput() float64 {
	if m.DeviceTime <= 0 {
		return 0
	}
	n := m.InBytes
	if m.OutBytes > n {
		n = m.OutBytes
	}
	return float64(n) / m.DeviceTime.Seconds()
}

// Accelerator is an open handle bound to one process context — since the
// topology refactor, a *view over a node*: Open builds a one-device node
// behind the scenes, and Node.View returns the same type over a
// multi-device pool, so every method here transparently routes requests
// through the node's dispatch policy. Compression and decompression
// methods are safe for concurrent use from any number of goroutines:
// requests queue at each device's shared receive FIFO and are charged to
// its engines by turn (configure Config.Device.Engines for devices with
// more than one engine behind the queue); on the host they compute side by
// side and share nothing but the engines' counters. TrainTable is setup-time configuration — call it before
// concurrent use begins. Writer/Reader/StreamWriter/StreamReader values
// are single-stream objects (one goroutine each), while any number of
// them may run concurrently on one Accelerator; ParallelWriter and
// Reader.Workers parallelize within a single stream — across the node's
// devices when there are several.
type Accelerator struct {
	cfg    Config
	root   *Node // owning node (flight recorder lives there)
	node   *topology.Node
	nctx   *topology.Context
	dev    *nx.Device  // primary device (node device 0), for compat accessors
	ctx    *nx.Context // primary context (nctx.Primary())
	canned *deflate.DHT
	met    *accMetrics
	closed atomic.Bool
	// class is this view's admission priority (admission.Class), set by
	// SetPriority. Zero value is Interactive.
	class atomic.Int32
	// tplane is this view's pre-resolved handle matrix into the tenant
	// accounting plane (tenant.go); nil when the node disables it.
	tplane *tenantPlane
}

// accMetrics holds the host-side (stream-layer) instruments, registered
// in the node's registry so one snapshot covers the whole stack.
type accMetrics struct {
	writerMembers  *telemetry.Counter
	readerMembers  *telemetry.Counter
	streamSegments *telemetry.Counter
	parallelChunks *telemetry.Counter
	reorderDepth   *telemetry.Gauge // in-flight reorder-queue entries; Max = high-water
	fallbacks      *telemetry.Counter
	redispatches   *telemetry.Counter

	// codecFallbacks splits fallbacks by codec family
	// (nxzip.codec.fallbacks{deflate|842|lz4}); the aggregate
	// nxzip.fallbacks stays untouched — the SLO fallback-ratio rule
	// reads it by exact name.
	codecFallbacks [nx.CodecCount]*telemetry.Counter
}

// fallback counts one software fallback: the aggregate plus every codec
// the degraded request required.
func (m *accMetrics) fallback(need nx.CodecSet) {
	m.fallbacks.Inc()
	for _, c := range nx.AllCodecs() {
		if need.Has(c) {
			m.codecFallbacks[c].Inc()
		}
	}
}

func newAccMetrics(reg *telemetry.Registry) *accMetrics {
	m := &accMetrics{
		writerMembers:  reg.Counter("nxzip.writer.members"),
		readerMembers:  reg.Counter("nxzip.reader.members"),
		streamSegments: reg.Counter("nxzip.stream.segments"),
		parallelChunks: reg.Counter("nxzip.parallel.chunks"),
		reorderDepth:   reg.Gauge("nxzip.parallel.reorder_depth"),
		fallbacks:      reg.Counter("nxzip.fallbacks"),
		redispatches:   reg.Counter("nxzip.redispatches"),
	}
	vec := reg.CounterVec("nxzip.codec.fallbacks")
	for _, c := range nx.AllCodecs() {
		m.codecFallbacks[c] = vec.With(c.String())
	}
	return m
}

// Open instantiates the device model and a context (address space + VAS
// send window) for the caller. Open is the one-device special case of
// OpenNode: the returned Accelerator is a view over a single-device
// node, and its snapshots and behaviour are identical to the
// pre-topology layout.
func Open(cfg Config) *Accelerator {
	if cfg.Device.Engines == 0 {
		cfg.Device = nx.P9Device()
	}
	n, err := OpenNode(NodeConfig{Shape: topology.Single(cfg.Device), TableMode: cfg.TableMode})
	if err != nil {
		// Unreachable: the empty Dispatch string always parses.
		panic(err)
	}
	a := n.View()
	a.cfg = cfg
	return a
}

// Metrics returns a point-in-time snapshot of every instrument in the
// stack: switchboard (vas.*), translation (nmmu.*), device and engines
// (nx.*), and the stream layer (nxzip.*). Counters reconcile with the
// run's request/byte totals: nx.requests counts engine passes,
// nxzip.writer.members counts gzip members, and so on. On a
// multi-device node the snapshot carries per-device rows under
// device-prefixed labels plus aggregate rows under the original names.
func (a *Accelerator) Metrics() *telemetry.Snapshot { return a.root.Metrics() }

// StartTrace enables request-lifecycle tracing: every request from now
// until StopTrace carries a trace span (paste attempts, credit waits,
// FIFO residency, translation and fault rounds, pipeline stages, CSB
// completion) emitted to sink when the request completes. With tracing
// off — the default — the request path allocates nothing for telemetry.
// On a multi-device node one shared tracer covers every device. Tracing
// and the flight recorder do not displace each other: with both on, the
// sink receives every span and the recorder keeps its requests' spans.
func (a *Accelerator) StartTrace(sink telemetry.Sink) { a.node.StartTrace(sink) }

// StopTrace disables tracing and closes the sink (flushing, for the
// Chrome sink, the accumulated trace document) exactly once.
func (a *Accelerator) StopTrace() error { return a.node.StopTrace() }

// Close releases the view's send windows (one per device). Close is
// idempotent: second and concurrent calls are no-ops, so a deferred
// Close is always safe even when an error path closed explicitly. The
// Accelerator must not submit work afterwards.
func (a *Accelerator) Close() {
	if a.closed.CompareAndSwap(false, true) {
		// Retire this view's tenant entry at the admission gate so closed
		// views neither dilute live tenants' quota shares nor accumulate
		// in the controller's tenant map.
		if ctrl := a.admissionCtrl(); ctrl != nil {
			ctrl.UnregisterTenant(a.nctx.ID())
		}
		// Queue the view's labeled series for retirement once the grace
		// period lapses (tenant.go), so view churn does not grow the
		// exposition without bound.
		a.root.noteTenantClosed(a.nctx.ID())
		a.nctx.Close()
	}
}

// Device exposes the underlying device model for experiments (MMU
// eviction, VAS stats, engine counters).
func (a *Accelerator) Device() *nx.Device { return a.dev }

// PipelineConfig returns the engine timing model.
func (a *Accelerator) PipelineConfig() pipeline.Config { return a.dev.PipelineConfig() }

func (a *Accelerator) funcCode() nx.FuncCode {
	switch {
	case a.cfg.TableMode == TableFixed:
		return nx.FCCompressFHT
	case a.cfg.TableMode == TableCanned && a.canned != nil:
		return nx.FCCompressCannedDHT
	}
	return nx.FCCompressDHT
}

// TrainTable builds a canned Huffman table from a representative sample
// (via the hardware matcher's symbol statistics, floored so the table can
// encode any input) and installs it for TableCanned mode.
func (a *Accelerator) TrainTable(sample []byte) error {
	m := lz77.NewHWMatcher(a.dev.Engine(0).Config().LZ)
	toks, _ := m.Tokenize(nil, sample)
	lf, df := deflate.CountFrequencies(toks)
	for i := range lf {
		lf[i]++
	}
	for i := range df {
		df[i]++
	}
	dht, err := deflate.BuildDHT(lf, df)
	if err != nil {
		return err
	}
	a.canned = dht
	return nil
}

// fillMetrics writes one request's accounting into a caller-owned
// Metrics.
func fillMetrics(m *Metrics, rep *nx.Report, csb *nx.CSB) {
	*m = Metrics{
		InBytes:      rep.InBytes,
		OutBytes:     rep.OutBytes,
		Ratio:        rep.Ratio,
		DeviceCycles: rep.TotalCycles,
		DeviceTime:   rep.Time,
		Faults:       rep.Retries,
		PasteRejects: rep.PasteRejects,
		BackoffWaits: rep.BackoffWaits,
		BackoffTime:  rep.BackoffTime,
		WastedCycles: rep.WastedCycles,
		CRC32:        csb.CRC32,
		Adler32:      csb.Adler32,
		QueueWait:    csb.QueueWait,
	}
}

// addCost accumulates the device-cost fields of m into dst: cycles and
// time, fault and paste/backoff recovery, re-dispatches, and whether any
// part was degraded to software. Byte counts, ratio and checksums belong
// to whoever settles the operation.
func (dst *Metrics) addCost(m *Metrics) {
	dst.DeviceCycles += m.DeviceCycles
	dst.DeviceTime += m.DeviceTime
	dst.Faults += m.Faults
	dst.PasteRejects += m.PasteRejects
	dst.BackoffWaits += m.BackoffWaits
	dst.BackoffTime += m.BackoffTime
	dst.WastedCycles += m.WastedCycles
	dst.Redispatches += m.Redispatches
	dst.Degraded = dst.Degraded || m.Degraded
}

// add accumulates one member's or segment's byte counts and device cost
// into a stream's running Stats.
func (dst *Metrics) add(m *Metrics) {
	dst.InBytes += m.InBytes
	dst.OutBytes += m.OutBytes
	dst.addCost(m)
}

// compress runs one whole-payload compression into format f: the
// DEFLATE framings with the configured table mode, the block codecs
// through whichever devices advertise them.
func (a *Accelerator) compress(f Format, src []byte) ([]byte, *Metrics, error) {
	return a.doNew(a.nctx, op{kind: opCompress, name: oneShotNames[f.Codec()][0], format: f, src: src})
}

// decompress is compress's twin. maxOutput of 0 applies the size
// heuristic.
func (a *Accelerator) decompress(f Format, src []byte, maxOutput int) ([]byte, *Metrics, error) {
	if maxOutput <= 0 {
		maxOutput = defaultMaxOutput(len(src))
	}
	return a.doNew(a.nctx, op{kind: opDecompress, name: oneShotNames[f.Codec()][1], format: f, src: src, maxOutput: maxOutput})
}

// oneShotNames holds the digest Op strings of the whole-payload
// requests, compress and decompress per codec.
var oneShotNames = [nx.CodecCount][2]string{
	nx.CodecDeflate: {"compress", "decompress"},
	nx.Codec842:     {"842-compress", "842-decompress"},
	nx.CodecLZ4:     {"lz4-compress", "lz4-decompress"},
}

// CompressGzip compresses src into a gzip stream through the accelerator
// model.
func (a *Accelerator) CompressGzip(src []byte) ([]byte, *Metrics, error) {
	return a.compress(FormatGzip, src)
}

// CompressZlib compresses src into a zlib stream.
func (a *Accelerator) CompressZlib(src []byte) ([]byte, *Metrics, error) {
	return a.compress(FormatZlib, src)
}

// CompressRaw compresses src into a bare DEFLATE stream.
func (a *Accelerator) CompressRaw(src []byte) ([]byte, *Metrics, error) {
	return a.compress(FormatRaw, src)
}

// DecompressGzip inflates a (single-member) gzip stream. maxOutput of 0
// applies a size heuristic; pass an explicit bound for untrusted input.
func (a *Accelerator) DecompressGzip(src []byte) ([]byte, *Metrics, error) {
	return a.decompress(FormatGzip, src, 0)
}

// DecompressZlib inflates a zlib stream.
func (a *Accelerator) DecompressZlib(src []byte) ([]byte, *Metrics, error) {
	return a.decompress(FormatZlib, src, 0)
}

// DecompressRaw inflates a bare DEFLATE stream.
func (a *Accelerator) DecompressRaw(src []byte) ([]byte, *Metrics, error) {
	return a.decompress(FormatRaw, src, 0)
}

// Compress842 compresses with the 842 engine (the POWER NX's memory
// compression format).
func (a *Accelerator) Compress842(src []byte) ([]byte, *Metrics, error) {
	return a.compress(Format842, src)
}

// Decompress842 decompresses 842 data. maxOutput of 0 applies a size
// heuristic; pass an explicit bound for untrusted input.
func (a *Accelerator) Decompress842(src []byte, maxOutput int) ([]byte, *Metrics, error) {
	return a.decompress(Format842, src, maxOutput)
}

// CompressLZ4 compresses src into one LZ4 block through the pool's
// LZ4-capable devices, with software fallback.
func (a *Accelerator) CompressLZ4(src []byte) ([]byte, *Metrics, error) {
	return a.compress(FormatLZ4, src)
}

// DecompressLZ4 decompresses one LZ4 block. maxOutput of 0 applies a
// size heuristic; pass an explicit bound for untrusted input.
func (a *Accelerator) DecompressLZ4(src []byte, maxOutput int) ([]byte, *Metrics, error) {
	return a.decompress(FormatLZ4, src, maxOutput)
}

// Context exposes the raw device context for advanced use (canned DHTs,
// demand-paged buffers, CSB inspection).
func (a *Accelerator) Context() *nx.Context { return a.ctx }

// MMU exposes the translation unit (fault-injection experiments).
func (a *Accelerator) MMU() *nmmu.MMU { return a.dev.MMU() }

// SoftwareGzip is the paper's baseline: a from-scratch zlib-equivalent
// software codec at levels 1..9, gzip-framed.
func SoftwareGzip(src []byte, level int) ([]byte, error) {
	return deflate.CompressGzip(src, deflate.Options{Level: level})
}

// SoftwareGunzip inflates a gzip stream in software.
func SoftwareGunzip(src []byte) ([]byte, error) {
	out, _, err := deflate.DecompressGzip(src, deflate.InflateOptions{})
	return out, err
}

// GunzipMulti inflates a possibly multi-member gzip stream (what the
// streaming Writer emits) in software.
func GunzipMulti(src []byte) ([]byte, error) {
	return deflate.DecompressGzipMulti(src, deflate.InflateOptions{})
}

// CompressZlibDict compresses src against a preset dictionary (RFC 1950
// FDICT) through the accelerator: the dictionary rides the CRB's history
// mechanism (the engine replays it through the LZ stage), and the wrapper
// applies the FDICT framing with the dictionary's Adler-32.
func (a *Accelerator) CompressZlibDict(src, dict []byte) ([]byte, *Metrics, error) {
	out, m, err := a.doNew(a.nctx, op{kind: opDict, name: "dict-compress", format: FormatRaw, src: src, history: dict})
	if err == nil && !m.Degraded { // the software encoder frames its own output
		out = deflate.ZlibWrapDict(out, src, dict)
	}
	return out, m, err
}

// DecompressZlibDict inflates a zlib stream that may require a preset
// dictionary.
func (a *Accelerator) DecompressZlibDict(src, dict []byte) ([]byte, *Metrics, error) {
	out, err := deflate.DecompressZlibDict(src, dict, deflate.InflateOptions{})
	if err != nil {
		return nil, nil, err
	}
	// Charge the device for the decode work (dictionary replay + stream).
	b := a.dev.PipelineConfig().Decompress(len(src)+len(dict), len(out), 0)
	m := &Metrics{
		InBytes:      len(src),
		OutBytes:     len(out),
		DeviceCycles: b.Total,
		DeviceTime:   a.dev.PipelineConfig().Time(b.Total),
	}
	if len(src) > 0 {
		m.Ratio = float64(len(out)) / float64(len(src))
	}
	return out, m, nil
}
