package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"runtime"

	"nxzip"
	"nxzip/internal/admission"
	"nxzip/internal/corpus"
	"nxzip/internal/lz4"
	"nxzip/internal/x842"
)

// workload.go defines the four workloads as data: how the corpus is
// made from the seed, how the node is opened, and the list of ops — one
// (payload, operation) pair each, with the program call, the independent
// cross-check of its output, and the layer path the traced run replays.
// The program under test only ever sees op.in: never the seed, never the
// workload name.

type direction int

const (
	dirCompress direction = iota
	dirDecompress
)

// loadClients is how many goroutines generate load where a workload
// wants "one per core" (small_into's throughput phase, stream_parallel's
// workers). It is a constant so the workload is the same on every
// machine; clients() clamps it, loudly, where there are fewer cores.
const loadClients = 2

// clients clamps a workload's wish for load-generating goroutines to the
// machine: more generators than cores measures the scheduler, not the
// library.
func clients(want int) (n int, clamped bool) {
	if cpus := runtime.NumCPU(); want > cpus {
		return cpus, true
	}
	return want, false
}

// client is one closed-loop caller: its own view of the node and its
// own reusable destination, as a production caller of the Into API
// would hold.
type client struct {
	node *nxzip.Node
	view *nxzip.Accelerator
	dst  []byte
	buf  bytes.Buffer
	m    nxzip.Metrics
}

// op is one (payload, operation) pair.
type op struct {
	class   string
	dir     direction
	payload int    // index of the plaintext side in instance.payloads
	in      []byte // the bytes handed to the program
	// device ops are served by the modelled device: they count on the
	// model clock and report the plaintext CRC-32 in their Metrics.
	// reportsCRC narrows that to the calls whose Metrics carry it (the
	// stream types accumulate Stats without one).
	device     bool
	reportsCRC bool
	// run calls the program. The returned bytes stay valid until the
	// client's next call.
	run func(c *client, in []byte) ([]byte, nxzip.Metrics, error)
	// check is the verify pass's independent judgement of run's output.
	check func(out, plain []byte) error
	// stdlibIn, for decompress-direction DEFLATE ops, makes a second
	// input with the standard library so interop is checked in both
	// directions.
	stdlibIn func(plain []byte) []byte
	// feeds lists the ops whose input is this op's output.
	feeds []int
	// path names the layer probes replayed under this op's request id.
	path []string

	classIdx int
	wantLen  int
	wantCRC  uint32 // of the plaintext when reportsCRC, else of the output
}

// workloadSpec is one workload's definition.
type workloadSpec struct {
	name string
	// why is the workload's reason to exist, as BENCHMARK.json records it.
	why     string
	clients int // closed-loop clients of the timed phase
	table   nxzip.TableMode
	// generate makes the payloads from the seed; scale divides sizes
	// (1 in a real run, 100 in the test).
	generate func(seed int64, scale int) [][]byte
	config   func() nxzip.NodeConfig
	// production turns on the flight recorder and the admission gate, so
	// any shed or degraded result is a failure, not a policy decision.
	production bool
	ops        func(payloads [][]byte) []op
}

func scaled(n, scale, floor int) int {
	return max(n/scale, floor)
}

func kindPayloads(kinds []corpus.Kind, per, size int, seed int64) [][]byte {
	var out [][]byte
	for ki, k := range kinds {
		// One generator call per kind, then cut: payloads of a kind are
		// consecutive pieces of one long sample, as records of one
		// source are.
		blob := corpus.Generate(k, per*size, seed*131+int64(ki))
		for i := 0; i < per; i++ {
			out = append(out, blob[i*size:(i+1)*size])
		}
	}
	return out
}

func stdGzip(plain []byte) []byte {
	var b bytes.Buffer
	w := gzip.NewWriter(&b)
	w.Write(plain)
	w.Close()
	return b.Bytes()
}

func stdGunzip(gz []byte) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r) // multi-member streams concatenate, as RFC 1952 says
}

func checkGunzips(out, plain []byte) error {
	got, err := stdGunzip(out)
	if err != nil {
		return fmt.Errorf("compress/gzip rejects the output: %w", err)
	}
	if !bytes.Equal(got, plain) {
		return errors.New("compress/gzip inflates the output to different bytes")
	}
	return nil
}

func checkEquals(out, plain []byte) error {
	if !bytes.Equal(out, plain) {
		return errors.New("output differs from the plaintext")
	}
	return nil
}

// Layer paths: the kernels one root call runs, in order. The names are
// probe names in ledger.go.
var (
	pathCompressDHT = []string{"nmmu.translate", "lz77.hw", "deflate.dht", "deflate.encode", "checksum.crc32", "checksum.adler32"}
	pathCompressFHT = []string{"admission.admit_release", "topology.pick_release", "vas.paste_complete", "nmmu.translate", "lz77.hw", "deflate.encode", "checksum.crc32", "checksum.adler32"}
	pathInflate     = []string{"nmmu.translate", "deflate.unwrap", "deflate.inflate", "checksum.crc32", "checksum.adler32"}
	pathInflateProd = append([]string{"admission.admit_release", "topology.pick_release", "vas.paste_complete"}, pathInflate...)
)

var workloads = []workloadSpec{
	{
		name:    "bulk_oneshot",
		why:     "1 MiB payloads of 8 entropy classes through CompressGzip/DecompressGzip on one P9 view, 1 client: codec kernels are >95% of host time and dispatch is noise",
		clients: 1, table: nxzip.TableDynamic,
		generate: func(seed int64, scale int) [][]byte {
			kinds := []corpus.Kind{corpus.Text, corpus.HTML, corpus.JSONLogs, corpus.Source,
				corpus.Columnar, corpus.DNA, corpus.Binary, corpus.Random}
			return kindPayloads(kinds, 1, scaled(1<<20, scale, 4<<10), seed)
		},
		config: func() nxzip.NodeConfig { return nxzip.P9Node(1) },
		ops: func(payloads [][]byte) []op {
			var ops []op
			for i, p := range payloads {
				ops = append(ops,
					op{class: "gzip.compress", dir: dirCompress, payload: i, in: p, device: true, reportsCRC: true,
						run: func(c *client, in []byte) ([]byte, nxzip.Metrics, error) {
							out, m, err := c.view.CompressGzip(in)
							return out, deref(m), err
						},
						check: checkGunzips, feeds: []int{2*i + 1}, path: pathCompressDHT},
					op{class: "gzip.decompress", dir: dirDecompress, payload: i, device: true, reportsCRC: true,
						run: func(c *client, in []byte) ([]byte, nxzip.Metrics, error) {
							out, m, err := c.view.DecompressGzip(in)
							return out, deref(m), err
						},
						check: checkEquals, stdlibIn: stdGzip, path: pathInflate})
			}
			return ops
		},
	},
	{
		name:    "small_into",
		why:     "256 B-4 KiB records through the zero-alloc Into path on a 4-device z15 node with recorder, gate and tenant plane on, 2 clients: per-request fixed cost dominates, kernels are small",
		clients: loadClients, table: nxzip.TableFixed, production: true,
		generate: func(seed int64, scale int) [][]byte {
			// Record sizes are log-uniform in [256 B, 4 KiB]: as many
			// records near 256 B as near 2 KiB. The sizes are the same
			// for every seed — evenly spaced quantiles, so the size mix,
			// which sets the share of fixed cost per byte, is not a
			// matter of luck — and the seed decides their order and
			// their content.
			rng := rand.New(rand.NewSource(seed))
			n := scaled(512, scale, 8)
			sizes := make([]int, n)
			total := 0
			for i := range sizes {
				sizes[i] = int(256 * math.Pow(16, (float64(i)+0.5)/float64(n)))
				total += sizes[i]
			}
			rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
			blob := corpus.Generate(corpus.JSONLogs, total, seed)
			out := make([][]byte, n)
			for i, sz := range sizes {
				out[i], blob = blob[:sz], blob[sz:]
			}
			return out
		},
		config: func() nxzip.NodeConfig { return nxzip.Z15Node(1) },
		ops: func(payloads [][]byte) []op {
			var ops []op
			for i, p := range payloads {
				ops = append(ops,
					op{class: "gzip.compress_into", dir: dirCompress, payload: i, in: p, device: true, reportsCRC: true,
						run: func(c *client, in []byte) ([]byte, nxzip.Metrics, error) {
							out, err := c.view.CompressGzipInto(c.dst, in, &c.m)
							return out, c.m, err
						},
						check: checkGunzips, feeds: []int{2*i + 1}, path: pathCompressFHT},
					op{class: "gzip.decompress_into", dir: dirDecompress, payload: i, device: true, reportsCRC: true,
						run: func(c *client, in []byte) ([]byte, nxzip.Metrics, error) {
							out, err := c.view.DecompressGzipInto(c.dst, in, &c.m)
							return out, c.m, err
						},
						check: checkEquals, stdlibIn: stdGzip, path: pathInflateProd})
			}
			return ops
		},
	},
	{
		name:    "stream_parallel",
		why:     "one 8 MiB stream through ParallelWriter/ParallelReader then StreamWriter/StreamReader: same kernels as bulk_oneshot, but the work is chunking, hand-off, collection and resume state",
		clients: 1, table: nxzip.TableDynamic,
		generate: func(seed int64, scale int) [][]byte {
			// Pieces of three classes interleaved, so every chunk
			// boundary the writers cut is also a change of statistics.
			const piece = 64 << 10
			n := scaled(8<<20, scale, 4*piece) / piece
			kinds := []corpus.Kind{corpus.Text, corpus.Columnar, corpus.Binary}
			src := kindPayloads(kinds, 1, (n/3+1)*piece, seed)
			stream := make([]byte, 0, n*piece)
			for i := 0; i < n; i++ {
				k, j := i%3, i/3
				stream = append(stream, src[k][j*piece:(j+1)*piece]...)
			}
			return [][]byte{stream}
		},
		config: func() nxzip.NodeConfig {
			workers, _ := clients(loadClients)
			cfg := nxzip.P9Node(1)
			cfg.Shape.Devices[0].Config.Engines = workers
			return cfg
		},
		ops: func(payloads [][]byte) []op {
			workers, _ := clients(loadClients)
			writer := func(open func(c *client) io.WriteCloser, stats func(w io.WriteCloser) nxzip.Metrics) func(*client, []byte) ([]byte, nxzip.Metrics, error) {
				return func(c *client, in []byte) ([]byte, nxzip.Metrics, error) {
					c.buf.Reset()
					w := open(c)
					if _, err := w.Write(in); err != nil {
						return nil, nxzip.Metrics{}, err
					}
					if err := w.Close(); err != nil {
						return nil, nxzip.Metrics{}, err
					}
					return c.buf.Bytes(), stats(w), nil
				}
			}
			reader := func(open func(c *client, in []byte) io.Reader, stats func(r io.Reader) nxzip.Metrics) func(*client, []byte) ([]byte, nxzip.Metrics, error) {
				return func(c *client, in []byte) ([]byte, nxzip.Metrics, error) {
					c.buf.Reset()
					r := open(c, in)
					if _, err := c.buf.ReadFrom(r); err != nil {
						return nil, nxzip.Metrics{}, err
					}
					return c.buf.Bytes(), stats(r), nil
				}
			}
			plain := payloads[0]
			return []op{
				{class: "pwriter", dir: dirCompress, in: plain, device: true, check: checkGunzips, feeds: []int{1},
					run: writer(func(c *client) io.WriteCloser { return c.view.NewParallelWriterChunk(&c.buf, 256<<10, workers) },
						func(w io.WriteCloser) nxzip.Metrics { return w.(*nxzip.ParallelWriter).Stats }),
					path: pathCompressDHT},
				{class: "preader", dir: dirDecompress, device: true, check: checkEquals, stdlibIn: stdGzip,
					run: reader(func(c *client, in []byte) io.Reader { return c.view.NewParallelReader(bytes.NewReader(in), workers) },
						func(r io.Reader) nxzip.Metrics { return r.(*nxzip.Reader).Stats }),
					path: pathInflate},
				{class: "streamwriter", dir: dirCompress, in: plain, device: true, check: checkGunzips, feeds: []int{3},
					run: writer(func(c *client) io.WriteCloser { return c.view.NewStreamWriterChunk(&c.buf, 64<<10) },
						func(w io.WriteCloser) nxzip.Metrics { return w.(*nxzip.StreamWriter).Stats }),
					path: pathCompressDHT},
				{class: "streamreader", dir: dirDecompress, device: true, check: checkEquals, stdlibIn: stdGzip,
					run: reader(func(c *client, in []byte) io.Reader { return c.view.NewStreamReader(bytes.NewReader(in), 0) },
						func(r io.Reader) nxzip.Metrics { return r.(*nxzip.StreamReader).Stats }),
					path: pathInflate},
			}
		},
	},
	{
		name:    "codec_mix",
		why:     "64 KiB payloads through lz4, 842, gzip-to-lz4 transcode and the software zlib-6 baseline: block codecs, format routing and the SoftMatcher the other three never run",
		clients: 1, table: nxzip.TableDynamic,
		generate: func(seed int64, scale int) [][]byte {
			kinds := []corpus.Kind{corpus.Text, corpus.JSONLogs, corpus.Columnar, corpus.Binary}
			return kindPayloads(kinds, scaled(8, scale, 1), scaled(64<<10, scale, 4<<10), seed)
		},
		config: func() nxzip.NodeConfig { return nxzip.Z15Node(1) },
		ops: func(payloads [][]byte) []op {
			block := func(f nxzip.Format, name string, inflate func([]byte, int) ([]byte, error), i int, p []byte, probe string) []op {
				return []op{
					{class: name + ".compress", dir: dirCompress, payload: i, in: p, device: true, reportsCRC: true,
						run: func(c *client, in []byte) ([]byte, nxzip.Metrics, error) {
							out, m, err := c.node.CompressFormat(f, in)
							return out, deref(m), err
						},
						check: func(out, plain []byte) error {
							got, err := inflate(out, len(plain))
							if err != nil {
								return err
							}
							return checkEquals(got, plain)
						},
						path: []string{"nmmu.translate", probe + ".compress", "checksum.crc32"}},
					{class: name + ".decompress", dir: dirDecompress, payload: i, device: true, reportsCRC: true,
						run: func(c *client, in []byte) ([]byte, nxzip.Metrics, error) {
							out, m, err := c.node.DecompressFormat(f, in, len(p))
							return out, deref(m), err
						},
						check: checkEquals,
						path:  []string{"nmmu.translate", probe + ".decompress", "checksum.crc32"}},
				}
			}
			const perPayload = 7
			var ops []op
			for i, p := range payloads {
				base := perPayload * i
				l := block(nxzip.FormatLZ4, "lz4", lz4.Decompress, i, p, "lz4")
				l[0].feeds = []int{base + 1}
				x := block(nxzip.Format842, "x842", x842.Decompress, i, p, "x842")
				x[0].feeds = []int{base + 3}
				ops = append(ops, l[0], l[1], x[0], x[1],
					op{class: "softgzip", dir: dirCompress, payload: i, in: p,
						run: func(c *client, in []byte) ([]byte, nxzip.Metrics, error) {
							out, err := nxzip.SoftwareGzip(in, 6)
							return out, nxzip.Metrics{}, err
						},
						check: checkGunzips, feeds: []int{base + 5, base + 6}, path: []string{"deflate.soft6"}},
					op{class: "softgunzip", dir: dirDecompress, payload: i,
						run: func(c *client, in []byte) ([]byte, nxzip.Metrics, error) {
							out, err := nxzip.SoftwareGunzip(in)
							return out, nxzip.Metrics{}, err
						},
						check: checkEquals, stdlibIn: stdGzip, path: []string{"deflate.unwrap", "deflate.inflate", "checksum.crc32"}},
					op{class: "transcode", dir: dirCompress, payload: i, device: true, reportsCRC: true,
						run: func(c *client, in []byte) ([]byte, nxzip.Metrics, error) {
							out, m, err := c.node.Transcode(nxzip.FormatGzip, nxzip.FormatLZ4, in)
							return out, deref(m), err
						},
						check: func(out, plain []byte) error {
							got, err := lz4.Decompress(out, len(plain))
							if err != nil {
								return err
							}
							return checkEquals(got, plain)
						},
						path: []string{"nmmu.translate", "deflate.inflate", "lz4.compress", "checksum.crc32"}})
			}
			return ops
		},
	},
}

func deref(m *nxzip.Metrics) nxzip.Metrics {
	if m == nil {
		return nxzip.Metrics{}
	}
	return *m
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// instance is one set-up workload: corpus generated, node open, decode
// inputs pre-compressed, pools warm.
type instance struct {
	spec     *workloadSpec
	payloads [][]byte
	node     *nxzip.Node
	clients  []*client
	ops      []op
	classes  []string // op classes in first-seen order
	classDir []direction
}

// open builds the workload's node and n client views on it.
func (w *workloadSpec) open(n int) (*nxzip.Node, []*client, error) {
	cfg := w.config()
	cfg.TableMode = w.table
	node, err := nxzip.OpenNode(cfg)
	if err != nil {
		return nil, nil, err
	}
	if w.production {
		node.EnableFlightRecorder("")
		node.EnableAdmission(admission.Config{})
	}
	cs := make([]*client, n)
	for i := range cs {
		// 16 KiB holds the largest record or its frame, so the Into
		// path never regrows the destination.
		cs[i] = &client{node: node, view: node.View(), dst: make([]byte, 0, 16<<10)}
	}
	return node, cs, nil
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.view.Close()
	}
}

// setup is the step setup_s times: generate the corpus from the seed,
// open the node and views, pre-compress the decode inputs, and run every
// op once on every client so pools, arenas and lazily built tables are
// warm before anything is timed.
func setup(w *workloadSpec, seed int64, scale int) (*instance, error) {
	n, clamped := clients(w.clients)
	if clamped {
		warnf("%s wants %d load-generating goroutines, the machine has %d cores: clamped", w.name, w.clients, n)
	}
	in := &instance{spec: w, payloads: w.generate(seed, scale)}
	var err error
	if in.node, in.clients, err = w.open(n); err != nil {
		return nil, err
	}
	in.ops = w.ops(in.payloads)
	seen := map[string]int{}
	for i := range in.ops {
		o := &in.ops[i]
		idx, ok := seen[o.class]
		if !ok {
			idx = len(in.classes)
			seen[o.class] = idx
			in.classes = append(in.classes, o.class)
			in.classDir = append(in.classDir, o.dir)
		}
		o.classIdx = idx
	}
	c0 := in.clients[0]
	for i := range in.ops {
		o := &in.ops[i]
		if len(o.feeds) == 0 {
			continue
		}
		out, _, err := o.run(c0, o.in)
		if err != nil {
			return nil, fmt.Errorf("%s: pre-compress %s: %w", w.name, o.class, err)
		}
		fed := bytes.Clone(out)
		for _, f := range o.feeds {
			in.ops[f].in = fed
		}
	}
	for ci, c := range in.clients {
		for i := range in.ops {
			o := &in.ops[i]
			out, _, err := o.run(c, o.in)
			if err != nil {
				return nil, fmt.Errorf("%s: warm %s: %w", w.name, o.class, err)
			}
			if ci == 0 {
				o.wantLen = len(out)
				if o.reportsCRC {
					o.wantCRC = crc32.ChecksumIEEE(in.payloads[o.payload])
				} else {
					o.wantCRC = crc32.ChecksumIEEE(out)
				}
			}
		}
	}
	return in, nil
}

func (in *instance) close() { closeClients(in.clients) }

// judge is the timed phase's correctness check of one result: no error,
// not served by the software fallback, the expected length, the expected
// CRC-32. It reports whether the op failed.
func (o *op) judge(out []byte, m *nxzip.Metrics, err error) bool {
	switch {
	case err != nil, m.Degraded, len(out) != o.wantLen:
		return true
	case o.reportsCRC:
		return m.CRC32 != o.wantCRC
	}
	return crc32.ChecksumIEEE(out) != o.wantCRC
}
