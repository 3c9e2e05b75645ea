// Command benchdiff compares bench/ result files, each what `go run ./bench
// -out` writes (an array of results) or what `-result` writes (one):
//
//	benchdiff [-model-only] base.json new.json [new.json...]
//	benchdiff -pairs parent1.json change1.json parent2.json change2.json...
//
// The first form matches each new result to the base result of the same
// workload and trace mode. It fails (exit 1) when an untraced base
// workload has no new result, when a model_digest differs, when an
// untraced clock=model row differs in any digit or is in only one file (a
// traced run's model rows include time-boxed counters), when an untraced
// host row that carries a bound is in only one file, worse, in its better
// direction, than its limit, max(bound, 2 × the base's noise), or too
// noisy to judge (its own noise above that limit), and when fail_ratio
// rose. A bounded row whose limit is more than twice its bound prints a
// WARN line: the base's noise leaves it ungated. Other host rows, the traced runs' ledger among them, print with
// their ratio and never fail. -model-only leaves host rows and fail_ratio
// out of the verdict, for runs shorter than the base's: their host rows
// still carry warm-up.
//
// -pairs reads files that alternate parent and change runs. For each
// workload and end-to-end metric of the untraced runs it prints the
// parent's median [quartiles], the change's median, the change's wins
// (ties count for neither side) and a verdict: inside the bound, outside
// it, or unresolved when the parent's quartile spread is wider than the
// bound and not every change run beats every parent run. Pairs at a seed
// other than the first pair's are held out and print on their own line.
// It fails when a median is outside its bound, when a change run lacks a
// metric its parent run has, or when fail_ratio rose.
//
// Exit 2 is a usage or read error.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
)

// result is the part of a bench/ result benchdiff reads.
type result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Traced      bool              `json:"traced"`
	FailRatio   float64           `json:"fail_ratio"`
	ModelDigest string            `json:"model_digest"`
	Metrics     map[string]metric `json:"metrics"`
}

type metric struct {
	Value  float64 `json:"value"`
	Clock  string  `json:"clock"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Noise  float64 `json:"noise"`
}

func (r result) key() string {
	if r.Traced {
		return r.Workload + " (traced)"
	}
	return r.Workload
}

// worse is how far cur is behind base in the direction better names, as a
// fraction of base: negative when cur is ahead.
func worse(better string, base, cur float64) float64 {
	if cur == base {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}

// load reads one file: a JSON array of results or a single result.
func load(path string) ([]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []result
	if raw = bytes.TrimSpace(raw); len(raw) > 0 && raw[0] == '{' {
		var r result
		err = json.Unmarshal(raw, &r)
		out = []result{r}
	} else {
		err = json.Unmarshal(raw, &out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range out {
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: a result names no workload", path)
		}
	}
	return out, nil
}

// byKey indexes results by workload and trace mode.
func byKey(rs []result) map[string]result {
	m := make(map[string]result, len(rs))
	for _, r := range rs {
		m[r.key()] = r
	}
	return m
}

// diff writes one line per compared row and returns how many failed; with
// host false, host rows and fail_ratio only print.
func diff(w io.Writer, base, cur []result, host bool) int {
	bases := byKey(base)
	failed := 0
	fail := func(format string, args ...any) {
		failed++
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
	}
	curs := byKey(cur)
	for _, b := range base {
		if _, ok := curs[b.key()]; !ok && !b.Traced {
			fail("%s: no new result", b.key())
		}
	}
	for _, c := range cur {
		b, ok := bases[c.key()]
		if !ok {
			fail("%s: no base result", c.key())
			continue
		}
		if b.ModelDigest != c.ModelDigest {
			fail("%s: model_digest %s -> %s", c.key(), b.ModelDigest, c.ModelDigest)
		} else {
			fmt.Fprintf(w, "ok   %s: model_digest %s\n", c.key(), c.ModelDigest)
		}
		if host && c.FailRatio > b.FailRatio {
			fail("%s: fail_ratio %g -> %g", c.key(), b.FailRatio, c.FailRatio)
		}
		names := map[string]metric{}
		maps.Copy(names, b.Metrics)
		maps.Copy(names, c.Metrics)
		for _, name := range slices.Sorted(maps.Keys(names)) {
			bm, inBase := b.Metrics[name]
			cm, inCur := c.Metrics[name]
			model := bm.Clock == "model" || cm.Clock == "model"
			switch {
			case model && c.Traced:
				continue
			case model && (!inBase || !inCur):
				fail("%s %s: model row in only one file", c.key(), name)
			case model && bm.Value != cm.Value:
				fail("%s %s: model %v -> %v", c.key(), name, bm.Value, cm.Value)
			case model:
				fmt.Fprintf(w, "ok   %s %s: model %v\n", c.key(), name, cm.Value)
			case !inBase || !inCur:
				if host && !c.Traced && max(bm.Bound, cm.Bound) > 0 {
					fail("%s %s: host row in only one file", c.key(), name)
				} else {
					fmt.Fprintf(w, "     %s %s: host row in only one file\n", c.key(), name)
				}
			case host && !c.Traced && bm.Bound > 0:
				// The base's noise alone sets the limit: a noisy run does not
				// widen its own tolerance.
				limit := max(bm.Bound, 2*bm.Noise)
				if limit > 2*bm.Bound {
					fmt.Fprintf(w, "WARN %s %s: base noise %.0f%% gives limit %.0f%% (bound %.0f%%): ungated\n",
						c.key(), name, 100*bm.Noise, 100*limit, 100*bm.Bound)
				}
				line := fmt.Sprintf("%s %s: host %.4g -> %.4g (x%.3f; %s, limit %.0f%%)",
					c.key(), name, bm.Value, cm.Value, cm.Value/bm.Value, bm.Better, 100*limit)
				switch {
				case worse(bm.Better, bm.Value, cm.Value) > limit:
					fail("%s", line)
				case cm.Noise > limit:
					fail("%s: too noisy to judge, noise %.0f%%", line, 100*cm.Noise)
				default:
					fmt.Fprintf(w, "ok   %s\n", line)
				}
			default:
				fmt.Fprintf(w, "     %s %s: host %.4g -> %.4g (x%.3f)\n", c.key(), name, bm.Value, cm.Value, cm.Value/bm.Value)
			}
		}
	}
	return failed
}

// pair is one parent and change run's reading of a metric.
type pair struct {
	parent, change float64
	seed           int64
}

// pairs writes the paired table of runs, which alternate parent and
// change, and returns how many rows failed.
func pairs(w io.Writer, runs [][]result) int {
	type row struct{ workload, metric string }
	held := map[row][]pair{}
	defs := map[row]metric{}
	missing := map[row]int{}
	fails := map[string][2]float64{}
	for i := 0; i+1 < len(runs); i += 2 {
		changes := byKey(runs[i+1])
		for _, p := range runs[i] {
			if p.Traced {
				continue
			}
			// A change run without this workload lacks every metric of it.
			c := changes[p.key()]
			f := fails[p.Workload]
			fails[p.Workload] = [2]float64{max(f[0], p.FailRatio), max(f[1], c.FailRatio)}
			for name, pm := range p.Metrics {
				if pm.Bound <= 0 {
					continue
				}
				r := row{p.Workload, name}
				defs[r] = pm
				if cm, ok := c.Metrics[name]; ok {
					held[r] = append(held[r], pair{pm.Value, cm.Value, c.Seed})
				} else {
					missing[r]++
				}
			}
		}
	}
	failed := 0
	rows := slices.SortedFunc(maps.Keys(defs), func(a, b row) int {
		return cmp.Or(cmp.Compare(a.workload, b.workload), cmp.Compare(a.metric, b.metric))
	})
	for i, r := range rows {
		if i == 0 || rows[i-1].workload != r.workload {
			f := fails[r.workload]
			fmt.Fprintf(w, "%s fail_ratio: parent %g, change %g\n", r.workload, f[0], f[1])
			if f[1] > f[0] {
				failed++
			}
		}
		if n := missing[r]; n > 0 {
			fmt.Fprintf(w, "  %s %s: missing from %d change runs\n", r.workload, r.metric, n)
			failed++
			continue
		}
		m, ps := defs[r], held[r]
		var parent, change []float64
		wins := 0
		for _, p := range ps {
			if p.seed == ps[0].seed {
				parent, change = append(parent, p.parent), append(change, p.change)
				if worse(m.Better, p.parent, p.change) < 0 {
					wins++
				}
			}
		}
		q1, med, q3 := quartiles(parent)
		_, cmed, _ := quartiles(change)
		verdict := "inside bound"
		switch {
		case (q3-q1)/math.Abs(med) > m.Bound && !allAhead(m.Better, parent, change):
			verdict = "unresolved"
		case worse(m.Better, med, cmed) > m.Bound:
			verdict = "outside bound"
			failed++
		}
		fmt.Fprintf(w, "  %s %s (%s, bound %.0f%%): parent %.4g [%.4g, %.4g] -> change %.4g, wins %d/%d, %s\n",
			r.workload, r.metric, m.Better, 100*m.Bound, med, q1, q3, cmed, wins, len(parent), verdict)
		for _, p := range ps {
			if p.seed != ps[0].seed {
				fmt.Fprintf(w, "  held-out seed %d: %s %s parent %.4g -> change %.4g\n", p.seed, r.workload, r.metric, p.parent, p.change)
			}
		}
	}
	return failed
}

// quartiles is the first quartile, median and third quartile of xs,
// interpolated between the nearest ranks.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	at := func(q float64) float64 {
		i, frac := math.Modf(q * float64(len(s)-1))
		if frac == 0 {
			return s[int(i)]
		}
		return s[int(i)] + frac*(s[int(i)+1]-s[int(i)])
	}
	return at(0.25), at(0.5), at(0.75)
}

// allAhead reports whether every change run is ahead of every parent run.
func allAhead(better string, parent, change []float64) bool {
	for _, p := range parent {
		for _, c := range change {
			if worse(better, p, c) >= 0 {
				return false
			}
		}
	}
	return true
}

func main() {
	modelOnly := flag.Bool("model-only", false, "compare the model clock only: host rows and fail_ratio print and never fail")
	paired := flag.Bool("pairs", false, "summarise alternating parent and change result files")
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 || *paired && len(args)%2 != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-model-only] base.json new.json [new.json...]\n       benchdiff -pairs parent.json change.json [parent.json change.json...]")
		os.Exit(2)
	}
	runs := make([][]result, len(args))
	for i, path := range args {
		var err error
		if runs[i], err = load(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	if *paired {
		if n := pairs(os.Stdout, runs); n > 0 {
			fmt.Printf("benchdiff: %d rows failed\n", n)
			os.Exit(1)
		}
		return
	}
	if n := diff(os.Stdout, runs[0], slices.Concat(runs[1:]...), !*modelOnly); n > 0 {
		fmt.Printf("benchdiff: %d rows differ from %s\n", n, args[0])
		os.Exit(1)
	}
}
