// Command bench is nxzip's two-clock benchmark: four workloads, the
// end-to-end metrics a caller of the library sees (host clock) next to
// the modelled device's numbers (model clock), and a per-layer ledger
// taken from outside by timing calls into each layer's exported
// functions. It changes no product code and claims no gain; it is what
// later changes are measured with. See README.md in this directory.
//
//	go run ./bench -workload <name> -seed <n> -seconds <s> -trace <0|1>   one run (the driver's form)
//	go run ./bench -out <file>                                            every workload, both runs each
//	go run ./bench -aa                                                    the suite twice, differences vs bounds
//	go run ./bench -spec                                                  print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: warning: "+format+"\n", args...)
}

// measured is one reported number. Clock is "host" or "model"; Samples
// and Noise describe the repetitions behind a host-clock median (model
// numbers repeat exactly, so they carry neither).
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Clock   string  `json:"clock,omitempty"`
	Better  string  `json:"better,omitempty"`
	Bound   float64 `json:"bound,omitempty"`
	Samples int     `json:"samples,omitempty"`
	Noise   float64 `json:"noise,omitempty"`
	// Reps holds the repetitions behind a host-clock median, in order.
	Reps []float64 `json:"reps,omitempty"`
	// Moves, on a ledger row, is the end-to-end metric and workload the
	// row was predicted to move before anything was measured.
	Moves string `json:"moves,omitempty"`
}

// environment is recorded in every result file: a number without the
// machine it was read on is not a baseline.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func readEnvironment() environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// result is one run of one workload.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Correct is false when any operation failed or the model clock did
	// not repeat; FailRatio is Failed ÷ Attempted over verify and timed.
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	// ModelDigest is the SHA-256 over the verify pass's output bytes and
	// DeviceCycles: two commits with equal digests have an untouched
	// model clock on this workload and seed.
	ModelDigest string `json:"model_digest"`
	// ModelValidation says what the model clock is worth: the model has
	// not been validated against silicon, so no error figure exists.
	ModelValidation string              `json:"model_validation"`
	Env             environment         `json:"env"`
	Metrics         map[string]measured `json:"metrics"`
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = measured{Value: v}
}

// setSamples records a value with the number of timed calls behind it.
func (r *result) setSamples(name string, v float64, samples int) {
	r.Metrics[name] = measured{Value: v, Samples: samples}
}

// setReps records a host-clock metric as the median over repetitions.
func (r *result) setReps(name string, reps []float64) {
	r.Metrics[name] = measured{Value: median(reps), Samples: len(reps), Noise: noise(reps), Reps: reps}
}

// finish stamps unit, clock, direction and bound from the spec onto
// every metric and checks that the run emitted exactly the spec's set.
func (r *result) finish(defs []metricDef) error {
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.Name, m.Value)
		}
		m.Unit, m.Clock, m.Better, m.Bound, m.Moves = d.Unit, d.Clock, d.Better, d.Bound, d.Moves
		r.Metrics[d.Name] = m
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics measured, the spec names %d", len(r.Metrics), len(defs))
	}
	return nil
}

// runConfig is one run's parameters. scale divides the workload sizes;
// it is 1 except in the test.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	traceFile string
	scale     int
}

// A run sets up at least minSetups times, and keeps setting up until
// setupBudget is spent (or maxSetups reached), so setup_s is a median
// over several set-ups and a set-up of a tenth of a second is not
// judged from three readings.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// run performs one run: set-up, verify pass, then either the untraced
// timed phase (end-to-end metrics) or the traced phase (ledger).
func run(cfg runConfig) (*result, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.trace,
		ModelValidation: "unvalidated", Env: readEnvironment(), Metrics: map[string]measured{},
	}
	var (
		in     *instance
		setups []float64
		spent  time.Duration
	)
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if in != nil {
			// Free the previous instance first: a node is tens of
			// megabytes of matcher tables, and whether the collector
			// happens to run between two set-ups would otherwise decide
			// both setup_s and peak_rss_mb.
			in.close()
			in = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if in, err = setup(w, cfg.seed, cfg.scale); err != nil {
			return nil, err
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
		if cfg.scale > 1 {
			break // the test sets up once
		}
	}
	defer in.close()

	var t tally
	model, err := in.verify(&t)
	if err != nil {
		return nil, err
	}
	res.ModelDigest = model.digest

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := in.traced(cfg, &t, res); err != nil {
			return nil, err
		}
	} else {
		res.setReps("setup_s", setups)
		res.set("model_compress_gbs", model.gbs(dirCompress))
		res.set("model_decompress_gbs", model.gbs(dirDecompress))
		res.set("ratio", model.ratio())
		in.timed(cfg.seconds, &t, res)
		res.set("peak_rss_mb", peakRSSMB())
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.FailRatio = float64(t.failed) / float64(t.attempted)
	res.Correct = t.failed == 0
	if t.firstErr != nil {
		warnf("%s: first failure: %v", w.name, t.firstErr)
	}
	if err := res.finish(defs); err != nil {
		return nil, err
	}
	return res, nil
}

// printLine prints the driver's result object as the last line of
// standard output.
func printLine(res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// child runs one workload in its own process — so peak_rss_mb is the
// workload's and not the suite's — and reads back its result file.
func child(dir string, cfg runConfig) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	file := filepath.Join(dir, fmt.Sprintf(".bench-%s-%s-%d.json", cfg.workload, trace, os.Getpid()))
	defer os.Remove(file)
	cmd := exec.Command(self,
		"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-result", file)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", cfg.workload, trace, err)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	res := &result{}
	return res, json.Unmarshal(raw, res)
}

// printResult prints every metric of one run by name with unit, clock,
// sample count, noise and bound.
func printResult(res *result) {
	fmt.Printf("%s seed %d traced %v: attempted %d failed %d fail_ratio %g model %s digest %.16s\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed, res.FailRatio, res.ModelValidation, res.ModelDigest)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %14.4f %-9s clock=%-5s samples=%d noise=%.3f bound=%g\n",
			n, m.Value, m.Unit, m.Clock, m.Samples, m.Noise, m.Bound)
	}
}

// suite runs every workload in a child process each, untraced and (when
// traced is set) traced.
func suite(dir string, seed int64, seconds float64, traced bool) ([]*result, error) {
	var all []*result
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			if tr && !traced {
				continue
			}
			res, err := child(dir, runConfig{workload: w.name, seed: seed, seconds: seconds, trace: tr})
			if err != nil {
				return nil, err
			}
			printResult(res)
			all = append(all, res)
		}
	}
	return all, nil
}

// aa runs the untraced suite twice back to back and holds the two
// against each other: the same code must agree with itself within the
// bounds it will be judged by, and exactly on the model clock.
func aa(seed int64, seconds float64) error {
	a, err := suite(".", seed, seconds, false)
	if err != nil {
		return err
	}
	b, err := suite(".", seed, seconds, false)
	if err != nil {
		return err
	}
	var bad []string
	fmt.Printf("\n%-16s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for i := range a {
		if a[i].ModelDigest != b[i].ModelDigest {
			bad = append(bad, a[i].Workload+" model_digest")
		}
		for _, d := range endToEnd {
			x, y := a[i].Metrics[d.Name].Value, b[i].Metrics[d.Name].Value
			diff := math.Abs(x-y) / math.Abs(x)
			bound := d.Bound
			if d.Clock == "model" {
				bound = 0 // same seed, same code: the model clock repeats exactly
			}
			mark := ""
			if diff > bound {
				mark = "  EXCEEDS"
				bad = append(bad, a[i].Workload+" "+d.Name)
			}
			fmt.Printf("%-16s %-22s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", a[i].Workload, d.Name, x, y, 100*diff, 100*bound, mark)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("two runs of the same code disagree beyond the bound on: %s", strings.Join(bad, ", "))
	}
	return nil
}

func main() {
	var (
		cfg      runConfig
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer ledger")
		result   = flag.String("result", "", "also write the run's full result (environment, clocks, samples, noise) to this file")
		out      = flag.String("out", "", "run every workload (untraced and traced, one process each) and write all results to this file")
		aaMode   = flag.Bool("aa", false, "run the untraced suite twice and compare the two against the bounds")
		specMode = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		profile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "corpus seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase")
	flag.StringVar(&cfg.traceFile, "tracefile", "", "with -trace 1: write the spans as Chrome trace_event JSON to this file")
	flag.Parse()
	cfg.trace = *trace != 0
	cfg.scale = 1

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	switch {
	case *specMode:
		doc, err := benchmarkJSON()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(doc)
	case *aaMode:
		if err := aa(cfg.seed, cfg.seconds); err != nil {
			fail(err)
		}
	case *out != "":
		all, err := suite(filepath.Dir(*out), cfg.seed, cfg.seconds, true)
		if err != nil {
			fail(err)
		}
		if err := writeJSON(*out, all); err != nil {
			fail(err)
		}
		for _, res := range all {
			if !res.Correct {
				fail(fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted))
			}
		}
	default:
		stopProfile := func() error { return nil }
		if *profile != "" {
			f, err := os.Create(*profile)
			if err != nil {
				fail(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fail(err)
			}
			stopProfile = func() error { pprof.StopCPUProfile(); return f.Close() }
		}
		res, err := run(cfg)
		if perr := stopProfile(); err == nil { // before any exit path: os.Exit runs no defers
			err = perr
		}
		if err != nil {
			fail(err)
		}
		if *result != "" {
			if err := writeJSON(*result, res); err != nil {
				fail(err)
			}
		}
		if err := printLine(res); err != nil {
			fail(err)
		}
		if !res.Correct {
			fail(fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted))
		}
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
