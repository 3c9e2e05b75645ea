package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"time"

	"nxzip"
	"nxzip/internal/admission"
	"nxzip/internal/bitio"
	"nxzip/internal/checksum"
	"nxzip/internal/deflate"
	"nxzip/internal/huffman"
	"nxzip/internal/lz4"
	"nxzip/internal/lz77"
	"nxzip/internal/nmmu"
	"nxzip/internal/nx"
	"nxzip/internal/topology"
	"nxzip/internal/vas"
	"nxzip/internal/x842"
)

// ledger.go is the per-layer ledger. Nothing inside the program is
// instrumented (that is a later change): each number is taken from
// outside, by calling a layer's exported functions on the workload's own
// payloads and timing the call. A probe is one such call. The traced
// repetition replays, under each request's id, the probes on that
// request's path; the sweep then runs every probe on a sample of the
// payloads so that every workload reports every layer, on-path or not.
// Nested entry points give self time by subtraction: root call ⊃
// nx.Context.SubmitInto ⊃ nx.Engine.ProcessInto ⊃ kernels.

// sample is one payload with the derived forms the probes consume. The
// derived forms are built on first use, outside any timed region.
type sample struct {
	plain []byte

	deflated bool
	tokens   []lz77.Token
	dht      *deflate.DHT // nil when the workload compresses with the fixed table
	raw      []byte       // the DEFLATE stream the engine would emit
	gz       []byte
	litFreq  []int64
	litLens  []uint8

	lz4b, x842b, softgz, flate6 []byte

	huffDec  *huffman.Decoder
	huffBits []byte
	huffSyms int

	srcVA, dstVA uint64 // zero until mapped

	batchDst []byte // caller-owned output of this sample's batch request
}

// microCalls is how many calls one sweep span of a sub-microsecond layer
// (paste, pick, admit) covers, so the two clock reads around it stay
// under a percent of what they time. A replay under a request id makes
// one call, as the request did.
const microCalls = 16

// ledgerPID is the address space the ledger's own device context uses.
const ledgerPID nmmu.PID = 7

type ledger struct {
	tr   *tracer
	in   *instance
	t    *tally
	mode deflate.BlockMode
	fc   nx.FuncCode
	cfg  nx.DeviceConfig

	hw     *lz77.HWMatcher
	soft   *lz77.SoftMatcher
	enc    deflate.StreamEncoder
	tokBuf []lz77.Token
	outBuf []byte
	bw     bitio.Writer
	fw     *flate.Writer

	// dev is the bare node's one device and ctx the ledger's own context
	// on it: the engine, submit and root probes all end in this device's
	// engine, so nested entry points share one set of matcher tables and
	// their difference is code path, not cache footprint.
	dev  *nx.Device
	ctx  *nx.Context
	csb  nx.CSB
	rep  nx.Report
	sb   *vas.Switchboard
	win  int
	tctx *topology.Context
	adm  *admission.Controller

	// bare is the workload's node without recorder, gate or tenant
	// plane; observed is the same node with all three on. other is a
	// bare view with the table mode the workload does not use.
	bare, observed, other *client

	micro int // calls per span of a sub-microsecond layer
	// best is, per probe, each sweep sample's fastest call over all
	// sweeps. Self times subtract two calls that differ by a microsecond
	// in twenty; only the per-sample minimum is steady enough for that.
	best    map[string][]time.Duration
	hwStats lz77.HWStats
	samples []*sample // the sweep's sample of the payloads
	full    []*sample // one per payload, whole, for replay under request ids
	stream  []byte    // the sweep samples concatenated, for the stream probes
}

// sweepBytes bounds the plaintext one sweep pushes through every probe.
const sweepBytes = 3 << 20

// sweepPiece is the largest single sample of a sweep.
const sweepPiece = 256 << 10

func newLedger(in *instance, tr *tracer, t *tally) (*ledger, error) {
	w := in.spec
	nodeCfg := w.config()
	l := &ledger{tr: tr, in: in, t: t, cfg: nodeCfg.Shape.Devices[0].Config, mode: deflate.ModeDynamic, fc: nx.FCCompressDHT, micro: 1,
		best: map[string][]time.Duration{}}
	if w.table == nxzip.TableFixed {
		l.mode, l.fc = deflate.ModeFixed, nx.FCCompressFHT
	}
	l.hw = lz77.NewHWMatcher(l.cfg.Engine.LZ)
	l.soft = lz77.NewSoftMatcher(lz77.LevelParams(6))
	l.fw, _ = flate.NewWriter(io.Discard, 6) // level 6 is valid: no error
	l.sb = vas.New(l.cfg.VAS)
	l.win = l.sb.OpenSendWindow(1)
	l.tctx = topology.New(nodeCfg.Shape, nil).OpenContext(1)
	l.adm = admission.NewController(admission.Config{}, nil, nil)

	// The ledger's nodes carry one device of the workload's kind: with
	// several, round-robin would spread a probe over as many sets of
	// matcher tables and charge the cache misses to the entry point.
	open := func(table nxzip.TableMode, observed bool) (*client, error) {
		cfg := w.config()
		cfg.Shape.Devices = cfg.Shape.Devices[:1]
		cfg.TableMode = table
		cfg.DisableTenantAccounting = !observed
		node, err := nxzip.OpenNode(cfg)
		if err != nil {
			return nil, err
		}
		if observed {
			node.EnableFlightRecorder("")
			node.EnableAdmission(admission.Config{})
		}
		return &client{node: node, view: node.View()}, nil
	}
	otherTable := nxzip.TableFixed
	if w.table == nxzip.TableFixed {
		otherTable = nxzip.TableDynamic
	}
	var err error
	if l.bare, err = open(w.table, false); err != nil {
		return nil, err
	}
	if l.observed, err = open(w.table, true); err != nil {
		return nil, err
	}
	if l.other, err = open(otherTable, false); err != nil {
		return nil, err
	}
	l.dev = l.bare.node.Device(0)
	l.ctx = l.dev.OpenContext(ledgerPID)

	// The sweep's sample: every payload cut into pieces, then every
	// stride-th piece, so all entropy classes stay represented while one
	// sweep stays a few seconds.
	var pieces [][]byte
	total, largest := 0, 0
	for _, p := range in.payloads {
		largest = max(largest, len(p))
		for len(p) > 0 {
			n := min(len(p), sweepPiece)
			pieces = append(pieces, p[:n])
			total += n
			p = p[n:]
		}
	}
	stride := (total + sweepBytes - 1) / sweepBytes
	for i := 0; i < len(pieces); i += stride {
		l.samples = append(l.samples, &sample{plain: pieces[i]})
		l.stream = append(l.stream, pieces[i]...)
	}
	l.full = make([]*sample, len(in.payloads))
	for i, p := range in.payloads {
		l.full[i] = &sample{plain: p}
	}
	l.outBuf = make([]byte, 0, 2*largest+1024)
	return l, nil
}

func (l *ledger) close() {
	for _, c := range []*client{l.bare, l.observed, l.other} {
		c.view.Close()
	}
	l.ctx.Close()
	l.tctx.Close()
}

// fail counts a layer call that went wrong as a failed operation of the
// run: a ledger row measured on a failing call is not a measurement.
func (l *ledger) fail(what string, err error) {
	l.t.add(true, fmt.Errorf("ledger %s: %w", what, err))
}

// sampleDHT mirrors the engine's single-pass table generation: count
// symbols over the tokens covering the first DHTSampleBytes, floor every
// symbol at one, build.
func (l *ledger) sampleDHT(tokens []lz77.Token) *deflate.DHT {
	covered, end := 0, 0
	for i, t := range tokens {
		if covered >= l.cfg.Engine.Pipeline.DHTSampleBytes {
			break
		}
		if t.IsMatch() {
			covered += t.Length()
		} else {
			covered++
		}
		end = i + 1
	}
	lf, df := deflate.CountFrequencies(tokens[:end])
	for i := range lf {
		lf[i]++
	}
	for i := range df {
		df[i]++
	}
	dht, err := deflate.BuildDHT(lf, df)
	if err != nil {
		l.fail("deflate.dht", err)
	}
	return dht
}

// deflate derives the sample's token stream, table, DEFLATE stream and
// gzip frame the way the engine produces them.
func (l *ledger) deflate(s *sample) {
	if s.deflated {
		return
	}
	s.deflated = true
	s.tokens, _ = l.hw.Tokenize(nil, s.plain)
	if l.mode == deflate.ModeDynamic {
		s.dht = l.sampleDHT(s.tokens)
	}
	var err error
	if s.raw, err = l.enc.EncodeStream(nil, s.tokens, s.plain, l.mode, s.dht, true); err != nil {
		l.fail("derive deflate stream", err)
	}
	s.gz = deflate.GzipWrap(s.raw, s.plain)
	s.litFreq, _ = deflate.CountFrequencies(s.tokens)
	if s.litLens, err = huffman.BuildLengths(s.litFreq, huffman.MaxBitsDeflate); err != nil {
		l.fail("derive code lengths", err)
	}
}

// huff derives a Huffman-coded form of the sample's leading bytes for
// the symbol-decode probe.
func (l *ledger) huff(s *sample) {
	if s.huffDec != nil {
		return
	}
	src := s.plain[:min(len(s.plain), 64<<10)]
	freq := make([]int64, 256)
	freq[0], freq[1] = 1, 1 // at least two symbols, so no code is zero bits long
	for _, b := range src {
		freq[b]++
	}
	lens, err := huffman.BuildLengths(freq, huffman.MaxBitsDeflate)
	if err != nil {
		l.fail("derive huffman sample", err)
		return
	}
	enc, err := huffman.NewEncoder(lens)
	if err != nil {
		l.fail("derive huffman sample", err)
		return
	}
	var w bitio.Writer
	for _, b := range src {
		c := enc.Codes[b]
		w.WriteBits(uint64(c.Bits), uint(c.Len))
	}
	if s.huffDec, err = huffman.NewDecoder(lens, huffman.DefaultPrimaryBits); err != nil {
		l.fail("derive huffman sample", err)
	}
	s.huffBits, s.huffSyms = bytes.Clone(w.Bytes()), len(src)
}

// vas maps the sample's source and target ranges in the ledger's own
// device context, once.
func (l *ledger) vas(s *sample) {
	if s.srcVA != 0 {
		return
	}
	var err error
	if s.srcVA, err = l.ctx.AcquireVA(len(s.plain)); err != nil {
		l.fail("map source", err)
	}
	if s.dstVA, err = l.ctx.AcquireVA(2*len(s.plain) + 1024); err != nil {
		l.fail("map target", err)
	}
}

func (l *ledger) compressCRB(s *sample) *nx.CRB {
	l.vas(s)
	return &nx.CRB{Func: l.fc, Wrap: nx.WrapGzip, Input: s.plain,
		SourceVA: s.srcVA, TargetVA: s.dstVA, TargetCap: 2*len(s.plain) + 1024, Target: l.outBuf}
}

func (l *ledger) decompressCRB(s *sample) *nx.CRB {
	l.vas(s)
	l.deflate(s)
	// Incompressible input makes a frame longer than its plaintext, so
	// the frame takes the larger of the sample's two mapped ranges.
	return &nx.CRB{Func: nx.FCDecompress, Wrap: nx.WrapGzip, Input: s.gz,
		SourceVA: s.dstVA, TargetVA: s.srcVA, TargetCap: len(s.plain), MaxOutput: len(s.plain), Target: l.outBuf}
}

// timedCall is the timed part of a probe: it returns the units the call
// processed (the metric's denominator) and the modelled cycles, if the
// layer has a model clock.
type timedCall func() (units float64, cycles int64)

// probes maps a probe name — also its span name — to its preparation:
// the untimed part that derives inputs and returns the timed call.
var probes = map[string]func(l *ledger, s *sample) timedCall{
	"bitio.write": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			l.bw.Reset()
			for _, b := range s.plain {
				l.bw.WriteBits(uint64(b), 9) // a typical literal code
			}
			return float64(len(l.bw.Bytes())), 0
		}
	},
	"bitio.read": func(l *ledger, s *sample) timedCall {
		r := bitio.NewReader(s.plain)
		return func() (float64, int64) {
			for { // the decoder's access pattern: peek a table index, skip a code
				if _, avail := r.PeekBits(9); avail < 9 {
					break
				}
				r.SkipBits(9)
			}
			return float64(len(s.plain)), 0
		}
	},
	"huffman.build": func(l *ledger, s *sample) timedCall {
		l.deflate(s)
		return func() (float64, int64) {
			lens, err := huffman.BuildLengths(s.litFreq, huffman.MaxBitsDeflate)
			if err == nil {
				_, err = huffman.NewEncoder(lens)
			}
			if err != nil {
				l.fail("huffman.build", err)
			}
			return 1, 0
		}
	},
	"huffman.newdecoder": func(l *ledger, s *sample) timedCall {
		l.deflate(s)
		return func() (float64, int64) {
			if _, err := huffman.NewDecoder(s.litLens, huffman.DefaultPrimaryBits); err != nil {
				l.fail("huffman.newdecoder", err)
			}
			return 1, 0
		}
	},
	"huffman.decode": func(l *ledger, s *sample) timedCall {
		l.huff(s)
		r := bitio.NewReader(s.huffBits)
		return func() (float64, int64) {
			for i := 0; i < s.huffSyms; i++ {
				if _, err := s.huffDec.Decode(r); err != nil {
					l.fail("huffman.decode", err)
					break
				}
			}
			return float64(s.huffSyms), 0
		}
	},
	"lz77.hw": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			toks, st := l.hw.Tokenize(l.tokBuf[:0], s.plain)
			l.tokBuf = toks
			l.hwStats.Cycles += st.Cycles
			l.hwStats.Probes += st.Probes
			l.hwStats.Candidates += st.Candidates
			l.hwStats.BankConflicts += st.BankConflicts
			return float64(len(s.plain)), st.Cycles
		}
	},
	"lz77.soft6": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			l.tokBuf = l.soft.Tokenize(l.tokBuf[:0], s.plain)
			return float64(len(s.plain)), 0
		}
	},
	"deflate.dht": func(l *ledger, s *sample) timedCall {
		l.deflate(s)
		return func() (float64, int64) {
			l.sampleDHT(s.tokens)
			return 1, 0
		}
	},
	"deflate.encode": func(l *ledger, s *sample) timedCall {
		l.deflate(s)
		return func() (float64, int64) {
			if _, err := l.enc.EncodeStream(l.outBuf[:0], s.tokens, s.plain, l.mode, s.dht, true); err != nil {
				l.fail("deflate.encode", err)
			}
			return float64(len(s.plain)), 0
		}
	},
	"deflate.unwrap": func(l *ledger, s *sample) timedCall {
		l.deflate(s)
		return func() (float64, int64) {
			if _, _, _, err := deflate.GzipUnwrap(s.gz); err != nil {
				l.fail("deflate.unwrap", err)
			}
			return float64(len(s.gz)), 0
		}
	},
	"deflate.inflate": func(l *ledger, s *sample) timedCall {
		l.deflate(s)
		return func() (float64, int64) {
			if _, err := deflate.Decompress(s.raw, deflate.InflateOptions{Dst: l.outBuf}); err != nil {
				l.fail("deflate.inflate", err)
			}
			return float64(len(s.plain)), 0
		}
	},
	"deflate.session": func(l *ledger, s *sample) timedCall {
		l.deflate(s)
		return func() (float64, int64) {
			sess := deflate.NewSession(deflate.InflateOptions{})
			for raw := s.raw; ; {
				n := min(len(raw), 64<<10)
				if _, err := sess.Feed(raw[:n], n == len(raw)); err != nil {
					l.fail("deflate.session", err)
					break
				}
				if raw = raw[n:]; len(raw) == 0 {
					break
				}
			}
			return float64(len(s.plain)), 0
		}
	},
	"deflate.soft6": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			if _, err := deflate.CompressGzip(s.plain, deflate.Options{Level: 6}); err != nil {
				l.fail("deflate.soft6", err)
			}
			return float64(len(s.plain)), 0
		}
	},
	"checksum.crc32": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) { checksum.Sum32(s.plain); return float64(len(s.plain)), 0 }
	},
	"checksum.adler32": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) { checksum.SumAdler32(s.plain); return float64(len(s.plain)), 0 }
	},
	"lz4.compress": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) { lz4.Compress(s.plain); return float64(len(s.plain)), 0 }
	},
	"lz4.decompress": func(l *ledger, s *sample) timedCall {
		if s.lz4b == nil {
			s.lz4b = lz4.Compress(s.plain)
		}
		return func() (float64, int64) {
			if _, err := lz4.Decompress(s.lz4b, len(s.plain)); err != nil {
				l.fail("lz4.decompress", err)
			}
			return float64(len(s.plain)), 0
		}
	},
	"x842.compress": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) { x842.Compress(s.plain); return float64(len(s.plain)), 0 }
	},
	"x842.decompress": func(l *ledger, s *sample) timedCall {
		if s.x842b == nil {
			s.x842b = x842.Compress(s.plain)
		}
		return func() (float64, int64) {
			if _, err := x842.Decompress(s.x842b, len(s.plain)); err != nil {
				l.fail("x842.decompress", err)
			}
			return float64(len(s.plain)), 0
		}
	},
	"nmmu.translate": func(l *ledger, s *sample) timedCall {
		l.vas(s)
		return func() (float64, int64) {
			// What the engine does before any work: the source range,
			// then the target range.
			src, err := l.dev.MMU().TranslateRangeStats(ledgerPID, s.srcVA, len(s.plain))
			if err != nil {
				l.fail("nmmu.translate", err)
			}
			dst, err := l.dev.MMU().TranslateRangeStats(ledgerPID, s.dstVA, 2*len(s.plain)+1024)
			if err != nil {
				l.fail("nmmu.translate", err)
			}
			return float64(src.Hits + src.Misses + dst.Hits + dst.Misses), src.Cycles + dst.Cycles
		}
	},
	"vas.paste_complete": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			var crb vas.CRB
			for i := 0; i < l.micro; i++ {
				crb = vas.CRB{PID: 1}
				if err := l.sb.Paste(l.win, &crb); err != nil {
					l.fail("vas.paste", err)
					break
				}
				l.sb.Complete(l.sb.Dequeue())
			}
			return float64(l.micro), 0
		}
	},
	"topology.pick_release": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			for i := 0; i < l.micro; i++ {
				dev, err := l.tctx.PickIndexAvail()
				if err != nil {
					l.fail("topology.pick", err)
					break
				}
				l.tctx.AcquireIndex(dev)
				l.tctx.ReleaseIndex(dev, nil)
			}
			return float64(l.micro), 0
		}
	},
	"admission.admit_release": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			for i := 0; i < l.micro; i++ {
				ticket, _, err := l.adm.Admit(admission.AdmitRequest{Class: admission.Interactive, Tenant: 1})
				if err != nil {
					l.fail("admission.admit", err)
					break
				}
				ticket.Release()
			}
			return float64(l.micro), 0
		}
	},
	"nx.engine.compress": func(l *ledger, s *sample) timedCall {
		crb := l.compressCRB(s)
		return func() (float64, int64) {
			l.dev.Engine(0).ProcessInto(ledgerPID, crb, &l.csb)
			return l.completed("nx.engine.compress", s)
		}
	},
	"nx.engine.decompress": func(l *ledger, s *sample) timedCall {
		crb := l.decompressCRB(s)
		return func() (float64, int64) {
			l.dev.Engine(0).ProcessInto(ledgerPID, crb, &l.csb)
			return l.completed("nx.engine.decompress", s)
		}
	},
	"nx.submit.compress": func(l *ledger, s *sample) timedCall {
		crb := l.compressCRB(s)
		return func() (float64, int64) {
			if err := l.ctx.SubmitInto(crb, &l.csb, &l.rep); err != nil {
				l.fail("nx.submit.compress", err)
			}
			return l.completed("nx.submit.compress", s)
		}
	},
	"nx.submit.decompress": func(l *ledger, s *sample) timedCall {
		crb := l.decompressCRB(s)
		return func() (float64, int64) {
			if err := l.ctx.SubmitInto(crb, &l.csb, &l.rep); err != nil {
				l.fail("nx.submit.decompress", err)
			}
			return l.completed("nx.submit.decompress", s)
		}
	},
	"nxzip.into.compress":     func(l *ledger, s *sample) timedCall { return l.intoCompress("nxzip.into.compress", l.bare, s) },
	"nxzip.into.decompress":   func(l *ledger, s *sample) timedCall { return l.intoDecompress("nxzip.into.decompress", l.bare, s) },
	"nxzip.observed.compress": func(l *ledger, s *sample) timedCall { return l.intoCompress("nxzip.observed.compress", l.observed, s) },
	"nxzip.observed.decompress": func(l *ledger, s *sample) timedCall {
		return l.intoDecompress("nxzip.observed.decompress", l.observed, s)
	},
	"nxzip.oneshot.compress": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			_, m, err := l.bare.view.CompressGzip(s.plain)
			return l.rooted("nxzip.oneshot.compress", s, m, err)
		}
	},
	"nxzip.oneshot.decompress": func(l *ledger, s *sample) timedCall {
		l.deflate(s)
		return func() (float64, int64) {
			_, m, err := l.bare.view.DecompressGzip(s.gz)
			return l.rooted("nxzip.oneshot.decompress", s, m, err)
		}
	},
	"nxzip.lz4": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			_, m, err := l.bare.node.CompressFormat(nxzip.FormatLZ4, s.plain)
			return l.rooted("nxzip.lz4", s, m, err)
		}
	},
	"nxzip.x842": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			_, m, err := l.bare.node.CompressFormat(nxzip.Format842, s.plain)
			return l.rooted("nxzip.x842", s, m, err)
		}
	},
	"nxzip.transcode": func(l *ledger, s *sample) timedCall {
		l.softGzip(s)
		return func() (float64, int64) {
			_, m, err := l.bare.node.Transcode(nxzip.FormatGzip, nxzip.FormatLZ4, s.softgz)
			return l.rooted("nxzip.transcode", s, m, err)
		}
	},
	"nxzip.softgzip": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			_, err := nxzip.SoftwareGzip(s.plain, 6)
			return l.rooted("nxzip.softgzip", s, nil, err)
		}
	},
	"ref.flate6.compress": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) {
			l.fw.Reset(io.Discard)
			l.fw.Write(s.plain)
			if err := l.fw.Close(); err != nil {
				l.fail("ref.flate6.compress", err)
			}
			return float64(len(s.plain)), 0
		}
	},
	"ref.flate.inflate": func(l *ledger, s *sample) timedCall {
		l.stdFlate(s)
		return func() (float64, int64) {
			if _, err := io.Copy(io.Discard, flate.NewReader(bytes.NewReader(s.flate6))); err != nil {
				l.fail("ref.flate.inflate", err)
			}
			return float64(len(s.plain)), 0
		}
	},
	"ref.crc32": func(l *ledger, s *sample) timedCall {
		return func() (float64, int64) { crc32.ChecksumIEEE(s.plain); return float64(len(s.plain)), 0 }
	},
}

func (l *ledger) softGzip(s *sample) {
	if s.softgz == nil {
		var err error
		if s.softgz, err = nxzip.SoftwareGzip(s.plain, 6); err != nil {
			l.fail("derive software gzip", err)
		}
	}
}

func (l *ledger) stdFlate(s *sample) {
	if s.flate6 == nil {
		var b bytes.Buffer
		l.fw.Reset(&b)
		l.fw.Write(s.plain)
		l.fw.Close()
		s.flate6 = b.Bytes()
	}
}

// completed reads the ledger's status block after an engine or submit
// probe.
func (l *ledger) completed(what string, s *sample) (float64, int64) {
	if l.csb.CC != nx.CCSuccess {
		l.fail(what, l.csb.CC.Err())
	}
	return float64(len(s.plain)), l.csb.Cycles.Total
}

// rooted judges a root-API probe call.
func (l *ledger) rooted(what string, s *sample, m *nxzip.Metrics, err error) (float64, int64) {
	if err != nil {
		l.fail(what, err)
		return float64(len(s.plain)), 0
	}
	if m == nil {
		return float64(len(s.plain)), 0
	}
	if m.Degraded {
		l.fail(what, fmt.Errorf("served by the software fallback"))
	}
	return float64(len(s.plain)), m.DeviceCycles
}

func (l *ledger) intoCompress(what string, c *client, s *sample) timedCall {
	return func() (float64, int64) {
		_, err := c.view.CompressGzipInto(l.outBuf, s.plain, &c.m)
		return l.rooted(what, s, &c.m, err)
	}
}

func (l *ledger) intoDecompress(what string, c *client, s *sample) timedCall {
	l.deflate(s)
	return func() (float64, int64) {
		_, err := c.view.DecompressGzipInto(l.outBuf, s.gz, &c.m)
		return l.rooted(what, s, &c.m, err)
	}
}

// run executes one probe on one sample as a span under req and returns
// the span's duration.
func (l *ledger) run(name string, s *sample, req uint64) time.Duration {
	call := probes[name](l, s)
	start := time.Now()
	units, cycles := call()
	end := time.Now()
	l.tr.record(req, name, start, end, units, cycles)
	return end.Sub(start)
}

// sweepOrder lists the probes in layer order, so a trace file reads
// bottom-up.
var sweepOrder = []string{
	"bitio.write", "bitio.read",
	"huffman.build", "huffman.newdecoder", "huffman.decode",
	"lz77.hw", "lz77.soft6",
	"deflate.dht", "deflate.encode", "deflate.unwrap", "deflate.inflate", "deflate.session", "deflate.soft6",
	"checksum.crc32", "checksum.adler32",
	"lz4.compress", "lz4.decompress", "x842.compress", "x842.decompress",
	"nmmu.translate", "vas.paste_complete", "topology.pick_release", "admission.admit_release",
	"nxzip.lz4", "nxzip.x842", "nxzip.transcode", "nxzip.softgzip",
	"ref.flate6.compress", "ref.flate.inflate", "ref.crc32",
}

// nested lists the entry points that contain one another — engine ⊂
// submit ⊂ root Into (bare, then observed) and root one-shot — whose
// differences are the self times. The first of them to run after the
// other probes finds the engine's matcher tables evicted and pays a
// microsecond per request for it, so each sweep starts the group one
// entry later: over the sweeps every entry gets a pass behind a
// neighbour, and the per-sample minimum keeps that one.
var nested = []string{"nx.engine", "nx.submit", "nxzip.into", "nxzip.observed", "nxzip.oneshot"}

// batchSize is the requests per CompressBatch call.
const batchSize = 64

// sweep runs every probe on every sample, then the probes that take the
// sample set as a whole: batched submission and the four stream types.
// k is the sweep's ordinal.
func (l *ledger) sweep(k int) {
	l.tr.counting, l.micro = true, microCalls
	defer func() { l.tr.counting, l.micro = false, 1 }()
	// Probe by probe, not sample by sample: each layer runs over the
	// whole sample with its own tables warm, as it does inside a
	// workload that calls it request after request, and nested entry
	// points are measured under the same conditions.
	order := sweepOrder
	for _, dir := range []string{".compress", ".decompress"} {
		for j := range nested {
			order = append(order, nested[(k+j)%len(nested)]+dir)
		}
	}
	for _, name := range order {
		req := l.tr.nextReq()
		start := time.Now()
		best := l.best[name]
		if best == nil {
			best = make([]time.Duration, len(l.samples))
			l.best[name] = best
		}
		for i, s := range l.samples {
			if d := l.run(name, s, req); best[i] == 0 || d < best[i] {
				best[i] = d
			}
		}
		l.tr.record(req, requestSpan, start, time.Now(), float64(len(l.stream)), 0)
	}
	req := l.tr.nextReq()
	start := time.Now()
	reqs := make([]*nxzip.BatchRequest, 0, batchSize)
	for i := 0; i < len(l.samples); i += batchSize {
		reqs = reqs[:0]
		for _, s := range l.samples[i:min(i+batchSize, len(l.samples))] {
			if s.batchDst == nil {
				s.batchDst = make([]byte, 0, 2*len(s.plain)+1024)
			}
			reqs = append(reqs, &nxzip.BatchRequest{Src: s.plain, Dst: s.batchDst})
		}
		t0 := time.Now()
		l.bare.view.CompressBatch(reqs)
		l.tr.record(req, "nxzip.batch", t0, time.Now(), float64(len(reqs)), 0)
		for _, r := range reqs {
			if r.Err != nil {
				l.fail("nxzip.batch", r.Err)
			}
		}
	}

	workers, _ := clients(loadClients)
	c := l.bare
	write := func(name string, w io.WriteCloser) []byte {
		t0 := time.Now()
		_, err := w.Write(l.stream)
		if err == nil {
			err = w.Close()
		}
		l.tr.record(req, name, t0, time.Now(), float64(len(l.stream)), 0)
		if err != nil {
			l.fail(name, err)
		}
		return bytes.Clone(c.buf.Bytes())
	}
	read := func(name string, r io.Reader) {
		c.buf.Reset()
		t0 := time.Now()
		_, err := c.buf.ReadFrom(r)
		l.tr.record(req, name, t0, time.Now(), float64(len(l.stream)), 0)
		if err != nil {
			l.fail(name, err)
		} else if !bytes.Equal(c.buf.Bytes(), l.stream) {
			l.fail(name, fmt.Errorf("stream does not round-trip"))
		}
	}
	c.buf.Reset()
	write("nxzip.pwriter.1", c.view.NewParallelWriterChunk(&c.buf, 256<<10, 1))
	c.buf.Reset()
	members := write("nxzip.pwriter", c.view.NewParallelWriterChunk(&c.buf, 256<<10, workers))
	c.buf.Reset()
	member := write("nxzip.streamwriter", c.view.NewStreamWriterChunk(&c.buf, 64<<10))
	read("nxzip.preader", c.view.NewParallelReader(bytes.NewReader(members), workers))
	read("nxzip.streamreader", c.view.NewStreamReader(bytes.NewReader(member), 0))
	l.tr.record(req, requestSpan, start, time.Now(), float64(len(l.stream)), 0)
}

// allocsPerReq counts heap allocations per root call over a
// compress+decompress pair on each sample, after one warm pass.
func (l *ledger) allocsPerReq(pair func(s *sample)) float64 {
	set := l.samples[:min(len(l.samples), batchSize)]
	for _, s := range set {
		l.deflate(s)
		pair(s)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, s := range set {
		pair(s)
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(2*len(set))
}

func (l *ledger) intoPair(c *client) func(s *sample) {
	return func(s *sample) {
		if _, err := c.view.CompressGzipInto(l.outBuf, s.plain, &c.m); err != nil {
			l.fail("allocs: CompressGzipInto", err)
		}
		if _, err := c.view.DecompressGzipInto(l.outBuf, s.gz, &c.m); err != nil {
			l.fail("allocs: DecompressGzipInto", err)
		}
	}
}

// traced is the traced run: an untraced single-client repetition (the
// latency percentiles, and the base the tracing overhead is held
// against), a traced repetition that replays each request's layer path
// under its id, then sweeps until the time is used.
func (in *instance) traced(cfg runConfig, t *tally, res *result) error {
	tr := newTracer()
	l, err := newLedger(in, tr, t)
	if err != nil {
		return err
	}
	defer l.close()
	begin := time.Now()
	quarter := time.Duration(cfg.seconds / 4 * float64(time.Second))
	one := in.clients[:1]

	untraced := in.repeat(one, quarter, true, nil)

	var rootWall, replayWall time.Duration
	traced := in.repeat(one, quarter, false, func(o *op, start, end time.Time) {
		req := tr.nextReq()
		s := l.full[o.payload]
		tr.record(req, "root."+o.class, start, end, float64(len(s.plain)), 0)
		rootWall += end.Sub(start)
		for _, name := range o.path {
			replayWall += l.run(name, s, req)
		}
		tr.record(req, requestSpan, start, time.Now(), float64(len(s.plain)), 0)
	})
	for _, r := range []*repetition{&untraced, &traced} {
		t.attempted += r.ops
		t.failed += r.failed
	}

	for k := 0; k == 0 || time.Since(begin).Seconds() < cfg.seconds; k++ {
		l.sweep(k)
	}
	if cfg.traceFile != "" {
		if err := tr.writeFile(cfg.traceFile); err != nil {
			return err
		}
	}
	l.metrics(res, &untraced, &traced, rootWall, replayWall)
	return nil
}

// metrics turns the spans' aggregates, the program's own counters and
// the two repetitions into the ledger's rows.
func (l *ledger) metrics(res *result, untraced, traced *repetition, rootWall, replayWall time.Duration) {
	a := l.tr.get
	perUnit := func(metric, span string) { res.setSamples(metric, a(span).perUnit(), a(span).calls) }
	perCallUS := func(metric, span string) { res.setSamples(metric, a(span).perCall()/1e3, a(span).calls) }
	mbps := func(metric, span string) {
		res.setSamples(metric, a(span).units/a(span).dur.Seconds()/1e6, a(span).calls)
	}

	perUnit("bitio.write.ns_per_byte", "bitio.write")
	perUnit("bitio.read.ns_per_byte", "bitio.read")
	perCallUS("huffman.build.us_per_table", "huffman.build")
	perCallUS("huffman.newdecoder.us_per_table", "huffman.newdecoder")
	perUnit("huffman.decode.ns_per_sym", "huffman.decode")
	perUnit("lz77.hw.ns_per_byte", "lz77.hw")
	res.set("lz77.hw.model_cycles_per_byte", float64(a("lz77.hw").cycles)/a("lz77.hw").units)
	res.set("lz77.hw.candidates_per_probe", float64(l.hwStats.Candidates)/float64(l.hwStats.Probes))
	res.set("lz77.hw.bank_conflict_ratio", float64(l.hwStats.BankConflicts)/float64(l.hwStats.Probes))
	perUnit("lz77.soft6.ns_per_byte", "lz77.soft6")
	perCallUS("deflate.dht.us_per_block", "deflate.dht")
	perUnit("deflate.encode.ns_per_byte", "deflate.encode")
	perUnit("deflate.inflate.ns_per_byte", "deflate.inflate")
	perUnit("deflate.session.ns_per_byte", "deflate.session")
	perUnit("deflate.soft6.ns_per_byte", "deflate.soft6")
	var ours, flate6 int
	for _, s := range l.samples {
		ours += len(s.raw)
		flate6 += len(s.flate6)
	}
	res.set("deflate.ratio_vs_flate6", float64(flate6)/float64(ours))
	perUnit("checksum.crc32.ns_per_byte", "checksum.crc32")
	perUnit("checksum.adler32.ns_per_byte", "checksum.adler32")
	perUnit("lz4.compress.ns_per_byte", "lz4.compress")
	perUnit("lz4.decompress.ns_per_byte", "lz4.decompress")
	perUnit("x842.compress.ns_per_byte", "x842.compress")
	perUnit("x842.decompress.ns_per_byte", "x842.decompress")

	// Translation, paste and dispatch ratios are read where the work
	// happened: on the workload's own node, after its repetitions.
	perUnit("nmmu.translate.ns_per_page", "nmmu.translate")
	var mmu nmmu.Stats
	node := l.in.node
	lo, hi := node.Dispatched(0), node.Dispatched(0)
	for i := 0; i < node.Devices(); i++ {
		st := node.Device(i).MMU().Stats()
		mmu.Hits += st.Hits
		mmu.Misses += st.Misses
		mmu.Cycles += st.Cycles
		lo, hi = min(lo, node.Dispatched(i)), max(hi, node.Dispatched(i))
	}
	pages := float64(max(mmu.Hits+mmu.Misses, 1))
	res.set("nmmu.erat_hit_ratio", float64(mmu.Hits)/pages)
	res.set("nmmu.model_cycles_per_page", float64(mmu.Cycles)/pages)
	perUnit("vas.paste_complete.ns_per_crb", "vas.paste_complete")
	vs := node.VASStats()
	res.set("vas.reject_ratio", float64(vs.CreditRejects+vs.FIFORejects)/float64(max(vs.Pastes, 1)))
	perUnit("topology.pick_release.ns_per_req", "topology.pick_release")
	res.set("topology.dispatch_imbalance", float64(hi)/float64(max(lo, 1)))
	perUnit("admission.admit_release.ns_per_req", "admission.admit_release")
	gate := node.Admission().StatusNow() // zero when the workload runs without a gate
	var admitted, refused int64
	for c := range gate.Shed {
		admitted += gate.Admitted[c]
		refused += gate.Shed[c]
	}
	res.set("admission.shed_ratio", float64(refused)/float64(max(admitted+refused, 1)))

	// Self times by subtraction of nested entry points, per call, from
	// each sample's fastest call: every probe visits the same samples, so
	// like is subtracted from like.
	fastest := func(span string) float64 {
		var sum time.Duration
		for _, d := range l.best[span] {
			sum += d
		}
		return float64(sum) / float64(len(l.samples))
	}
	pair := func(span string) float64 { return fastest(span+".compress") + fastest(span+".decompress") }
	kernels := fastest("nmmu.translate")*2 + fastest("lz77.hw") + fastest("deflate.encode") +
		fastest("deflate.unwrap") + fastest("deflate.inflate") +
		2*(fastest("checksum.crc32")+fastest("checksum.adler32"))
	if l.mode == deflate.ModeDynamic {
		kernels += fastest("deflate.dht")
	}
	perUnit("nx.engine.compress.ns_per_byte", "nx.engine.compress")
	perUnit("nx.engine.decompress.ns_per_byte", "nx.engine.decompress")
	res.set("nx.engine.self_ns_per_req", (pair("nx.engine")-kernels)/2)
	res.set("nx.submit.self_ns_per_req", (pair("nx.submit")-pair("nx.engine"))/2)
	engine := a("nx.engine.compress")
	dec := a("nx.engine.decompress")
	res.set("nx.engine.host_ns_per_model_cycle", float64(engine.dur+dec.dur)/float64(engine.cycles+dec.cycles))
	deviceOps := float64(max(untraced.deviceOps+traced.deviceOps, 1))
	res.set("nx.fault_resubmits_per_req", float64(untraced.faults+traced.faults)/deviceOps)
	res.set("nxzip.degraded_ratio", float64(untraced.degraded+traced.degraded)/deviceOps)
	res.set("nxzip.redispatch_ratio", float64(untraced.redispatches+traced.redispatches)/deviceOps)

	res.set("nxzip.into.self_ns_per_req", (pair("nxzip.into")-pair("nx.submit"))/2)
	res.set("nxzip.oneshot.self_ns_per_req", (pair("nxzip.oneshot")-pair("nx.submit"))/2)
	res.set("nxzip.observe.overhead_ns_per_req", (pair("nxzip.observed")-pair("nxzip.into"))/2)
	fixed, dynamic := l.bare, l.other
	if l.mode == deflate.ModeDynamic {
		fixed, dynamic = l.other, l.bare
	}
	res.set("nxzip.into.allocs_per_req", l.allocsPerReq(l.intoPair(fixed)))
	res.set("nxzip.into_dht.allocs_per_req", l.allocsPerReq(l.intoPair(dynamic)))
	res.set("nxzip.oneshot.allocs_per_req", l.allocsPerReq(func(s *sample) {
		if _, _, err := l.bare.view.CompressGzip(s.plain); err != nil {
			l.fail("allocs: CompressGzip", err)
		}
		if _, _, err := l.bare.view.DecompressGzip(s.gz); err != nil {
			l.fail("allocs: DecompressGzip", err)
		}
	}))
	batch := a("nxzip.batch")
	res.setSamples("nxzip.batch.req_per_s", batch.units/batch.dur.Seconds(), batch.calls)
	res.set("nxzip.batch.speedup_vs_into", a("nxzip.into.compress").perCall()/batch.perUnit())
	mbps("nxzip.pwriter.mbps", "nxzip.pwriter")
	res.set("nxzip.pwriter.scaling", a("nxzip.pwriter.1").perCall()/a("nxzip.pwriter").perCall())
	mbps("nxzip.preader.mbps", "nxzip.preader")
	mbps("nxzip.streamwriter.mbps", "nxzip.streamwriter")
	mbps("nxzip.streamreader.mbps", "nxzip.streamreader")
	mbps("nxzip.lz4.mbps", "nxzip.lz4")
	mbps("nxzip.x842.mbps", "nxzip.x842")
	mbps("nxzip.transcode.mbps", "nxzip.transcode")
	mbps("nxzip.softgzip.mbps", "nxzip.softgzip")
	perUnit("ref.flate6.compress.ns_per_byte", "ref.flate6.compress")
	perUnit("ref.flate.inflate.ns_per_byte", "ref.flate.inflate")
	perUnit("ref.crc32.ns_per_byte", "ref.crc32")

	for d, name := range []string{"compress", "decompress"} {
		lat := untraced.lat[d]
		res.setSamples("lat."+name+"_p50_us", quantile(lat, 0.50), len(lat))
		res.setSamples("lat."+name+"_p99_us", quantile(lat, 0.99), len(lat))
	}
	wall := func(r *repetition) float64 {
		var w time.Duration
		for _, ct := range r.classes {
			w += ct.wall
		}
		return float64(w) / float64(r.ops)
	}
	res.set("trace_overhead_ratio", wall(traced)/wall(untraced))
	res.set("trace_replay_coverage", float64(replayWall)/float64(rootWall))
}
