package main

import "encoding/json"

// spec.go is the benchmark's vocabulary: the workload names, the
// end-to-end metrics with their bounds, and the per-layer ledger. It is
// the single source BENCHMARK.json is printed from (`go run ./bench
// -spec`) and bench_test.go holds the two equal.

// runSeconds is the length of one driver run's timed phase.
const runSeconds = 20

// metricDef describes one metric. Clock names which of the two clocks
// the number is read on: "host" is what a caller of the library waits
// for, "model" is the modelled device timeline (unvalidated against
// silicon — EXPERIMENTS.md targets are reconstructed, so no error figure
// is given). Bound applies to end-to-end metrics only. Moves records,
// for a per-layer metric, the end-to-end metric and workload it should
// move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Clock  string
	Moves  string
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the library sees. Every workload reports
// every one of them. fail_ratio is the run's failed/attempted pair, and
// the four request-latency percentiles are in the ledger (lat.*): a
// percentile of 1 MiB or whole-stream requests is not a user-visible
// number, and the contract wants every workload to report every
// end-to-end metric.
//
// Bounds are set from measured spreads (README, "First recorded
// numbers"), not from wishes: on a shared 2-core VM the host clock
// drifts by 5-15 % over minutes whatever the benchmark does, and a bound
// must be at least three times the quartile spread it is judged against.
// The model-clock rows repeat exactly for a seed; their bound only
// absorbs the corpus changing with the seed, and model_digest keeps the
// exact check.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Clock: "host"},
	{Name: "compress_mbps", Unit: "MB/s", Better: higher, Bound: 0.25, Clock: "host"},
	{Name: "decompress_mbps", Unit: "MB/s", Better: higher, Bound: 0.25, Clock: "host"},
	{Name: "cpu_ns_per_byte", Unit: "ns/B", Better: lower, Bound: 0.25, Clock: "host"},
	{Name: "allocs_per_op", Unit: "count", Better: lower, Bound: 0.03, Clock: "host"},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25, Clock: "host"},
	{Name: "model_compress_gbs", Unit: "GB/s", Better: higher, Bound: 0.05, Clock: "model"},
	{Name: "model_decompress_gbs", Unit: "GB/s", Better: higher, Bound: 0.05, Clock: "model"},
	{Name: "ratio", Unit: "x", Better: higher, Bound: 0.05, Clock: "model"},
}

// perLayer is the ledger: one row per layer metric, named by module.
// All are taken from outside, by timing calls into each layer's exported
// functions on the payloads the workload uses.
var perLayer = []metricDef{
	{Name: "bitio.write.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "compress_mbps on bulk_oneshot"},
	{Name: "bitio.read.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "decompress_mbps on bulk_oneshot"},

	{Name: "huffman.build.us_per_table", Unit: "us", Better: lower, Clock: "host", Moves: "compress_mbps on bulk_oneshot"},
	{Name: "huffman.newdecoder.us_per_table", Unit: "us", Better: lower, Clock: "host", Moves: "decompress_mbps on bulk_oneshot, stream_parallel"},
	{Name: "huffman.decode.ns_per_sym", Unit: "ns", Better: lower, Clock: "host", Moves: "decompress_mbps on bulk_oneshot, stream_parallel"},

	{Name: "lz77.hw.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "compress_mbps on bulk_oneshot, stream_parallel"},
	{Name: "lz77.hw.model_cycles_per_byte", Unit: "cycles/B", Better: lower, Clock: "model", Moves: "none: must not move under a host-only change"},
	{Name: "lz77.hw.candidates_per_probe", Unit: "ratio", Better: lower, Clock: "model", Moves: "none: must not move under a host-only change"},
	{Name: "lz77.hw.bank_conflict_ratio", Unit: "ratio", Better: lower, Clock: "model", Moves: "none: must not move under a host-only change"},
	{Name: "lz77.soft6.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "compress_mbps on codec_mix only"},

	{Name: "deflate.dht.us_per_block", Unit: "us", Better: lower, Clock: "host", Moves: "compress_mbps on bulk_oneshot"},
	{Name: "deflate.encode.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "compress_mbps on bulk_oneshot"},
	{Name: "deflate.inflate.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "decompress_mbps on bulk_oneshot"},
	{Name: "deflate.session.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "decompress_mbps on stream_parallel"},
	{Name: "deflate.soft6.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "compress_mbps on codec_mix"},
	{Name: "deflate.ratio_vs_flate6", Unit: "ratio", Better: higher, Clock: "model", Moves: "ratio on bulk_oneshot"},

	{Name: "checksum.crc32.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "compress_mbps, decompress_mbps on bulk_oneshot"},
	{Name: "checksum.adler32.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "compress_mbps, decompress_mbps on bulk_oneshot"},

	{Name: "lz4.compress.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "compress_mbps on codec_mix only"},
	{Name: "lz4.decompress.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "decompress_mbps on codec_mix only"},
	{Name: "x842.compress.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "compress_mbps on codec_mix only"},
	{Name: "x842.decompress.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "decompress_mbps on codec_mix only"},

	{Name: "nmmu.translate.ns_per_page", Unit: "ns", Better: lower, Clock: "host", Moves: "lat.compress_p50_us, cpu_ns_per_byte on small_into"},
	{Name: "nmmu.erat_hit_ratio", Unit: "ratio", Better: higher, Clock: "model", Moves: "model_compress_gbs on small_into"},
	{Name: "nmmu.model_cycles_per_page", Unit: "cycles", Better: lower, Clock: "model", Moves: "model_compress_gbs on small_into"},

	{Name: "vas.paste_complete.ns_per_crb", Unit: "ns", Better: lower, Clock: "host", Moves: "lat.compress_p50_us on small_into"},
	{Name: "vas.reject_ratio", Unit: "ratio", Better: lower, Clock: "model", Moves: "compress_mbps on small_into"},

	{Name: "nx.engine.compress.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "compress_mbps on bulk_oneshot"},
	{Name: "nx.engine.decompress.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "decompress_mbps on bulk_oneshot"},
	{Name: "nx.engine.self_ns_per_req", Unit: "ns", Better: lower, Clock: "host", Moves: "lat.*_p50_us, cpu_ns_per_byte on small_into"},
	{Name: "nx.submit.self_ns_per_req", Unit: "ns", Better: lower, Clock: "host", Moves: "lat.*_p50_us, cpu_ns_per_byte on small_into"},
	{Name: "nx.engine.host_ns_per_model_cycle", Unit: "ns", Better: lower, Clock: "host", Moves: "compress_mbps on bulk_oneshot"},
	{Name: "nx.fault_resubmits_per_req", Unit: "ratio", Better: lower, Clock: "model", Moves: "model_compress_gbs on every workload"},

	{Name: "topology.pick_release.ns_per_req", Unit: "ns", Better: lower, Clock: "host", Moves: "compress_mbps on small_into"},
	{Name: "topology.dispatch_imbalance", Unit: "ratio", Better: lower, Clock: "model", Moves: "compress_mbps on small_into"},

	{Name: "admission.admit_release.ns_per_req", Unit: "ns", Better: lower, Clock: "host", Moves: "lat.*_p50_us on small_into"},
	{Name: "admission.shed_ratio", Unit: "ratio", Better: lower, Clock: "model", Moves: "failed on small_into"},

	{Name: "nxzip.into.self_ns_per_req", Unit: "ns", Better: lower, Clock: "host", Moves: "lat.*_p50_us on small_into"},
	{Name: "nxzip.oneshot.self_ns_per_req", Unit: "ns", Better: lower, Clock: "host", Moves: "compress_mbps on bulk_oneshot (noise there), small requests"},
	{Name: "nxzip.into.allocs_per_req", Unit: "count", Better: lower, Clock: "host", Moves: "allocs_per_op on small_into"},
	{Name: "nxzip.into_dht.allocs_per_req", Unit: "count", Better: lower, Clock: "host", Moves: "allocs_per_op on small_into if it moved to TableDynamic"},
	{Name: "nxzip.oneshot.allocs_per_req", Unit: "count", Better: lower, Clock: "host", Moves: "allocs_per_op on bulk_oneshot"},
	{Name: "nxzip.observe.overhead_ns_per_req", Unit: "ns", Better: lower, Clock: "host", Moves: "lat.*_p50_us on small_into"},
	{Name: "nxzip.batch.req_per_s", Unit: "1/s", Better: higher, Clock: "host", Moves: "none end to end: batch is ledger-only"},
	{Name: "nxzip.batch.speedup_vs_into", Unit: "ratio", Better: higher, Clock: "host", Moves: "none end to end: batch is ledger-only"},
	{Name: "nxzip.pwriter.mbps", Unit: "MB/s", Better: higher, Clock: "host", Moves: "compress_mbps on stream_parallel"},
	{Name: "nxzip.pwriter.scaling", Unit: "ratio", Better: higher, Clock: "host", Moves: "compress_mbps on stream_parallel"},
	{Name: "nxzip.preader.mbps", Unit: "MB/s", Better: higher, Clock: "host", Moves: "decompress_mbps on stream_parallel"},
	{Name: "nxzip.streamwriter.mbps", Unit: "MB/s", Better: higher, Clock: "host", Moves: "compress_mbps on stream_parallel"},
	{Name: "nxzip.streamreader.mbps", Unit: "MB/s", Better: higher, Clock: "host", Moves: "decompress_mbps on stream_parallel"},
	{Name: "nxzip.lz4.mbps", Unit: "MB/s", Better: higher, Clock: "host", Moves: "compress_mbps on codec_mix"},
	{Name: "nxzip.x842.mbps", Unit: "MB/s", Better: higher, Clock: "host", Moves: "compress_mbps on codec_mix"},
	{Name: "nxzip.transcode.mbps", Unit: "MB/s", Better: higher, Clock: "host", Moves: "compress_mbps on codec_mix"},
	{Name: "nxzip.softgzip.mbps", Unit: "MB/s", Better: higher, Clock: "host", Moves: "compress_mbps on codec_mix"},
	{Name: "nxzip.degraded_ratio", Unit: "ratio", Better: lower, Clock: "model", Moves: "failed on every workload"},
	{Name: "nxzip.redispatch_ratio", Unit: "ratio", Better: lower, Clock: "model", Moves: "failed on every workload"},

	{Name: "ref.flate6.compress.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "none: stdlib yardstick"},
	{Name: "ref.flate.inflate.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "none: stdlib yardstick"},
	{Name: "ref.crc32.ns_per_byte", Unit: "ns/B", Better: lower, Clock: "host", Moves: "none: stdlib yardstick"},

	{Name: "lat.compress_p50_us", Unit: "us", Better: lower, Clock: "host", Moves: "the user-visible latency of small_into (1 client)"},
	{Name: "lat.compress_p99_us", Unit: "us", Better: lower, Clock: "host", Moves: "the user-visible latency of small_into (1 client)"},
	{Name: "lat.decompress_p50_us", Unit: "us", Better: lower, Clock: "host", Moves: "the user-visible latency of small_into (1 client)"},
	{Name: "lat.decompress_p99_us", Unit: "us", Better: lower, Clock: "host", Moves: "the user-visible latency of small_into (1 client)"},

	{Name: "trace_overhead_ratio", Unit: "ratio", Better: lower, Clock: "host", Moves: "none: traced / untraced request time"},
	{Name: "trace_replay_coverage", Unit: "ratio", Better: higher, Clock: "host", Moves: "none: replayed kernel time / root call time"},
}

// benchmarkJSON renders the contract file at the root of the repo.
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
