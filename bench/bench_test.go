package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// contract is the part of BENCHMARK.json the tests read.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readContract(t *testing.T) (raw []byte, c contract) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return raw, c
}

// TestContractMatchesSpec: BENCHMARK.json is what `go run ./bench -spec`
// prints, so the names the driver expects cannot drift from the names
// the harness emits.
func TestContractMatchesSpec(t *testing.T) {
	raw, c := readContract(t)
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("BENCHMARK.json differs from the spec in bench/spec.go; regenerate it with `go run ./bench -spec > BENCHMARK.json`")
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloads runs every workload at 1/100 scale, untraced and traced,
// and checks what a run must always hold: exactly the contract's metric
// names, finite values, nothing failed, and a trace file whose layer
// spans all sit inside a request span with the same id.
func TestWorkloads(t *testing.T) {
	_, c := readContract(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() && w.name != "small_into" {
				continue // -short keeps one traced run: the one with every layer on its path
			}
			name := w.name + "/untraced"
			want := c.EndToEnd
			if traced {
				name, want = w.name+"/traced", c.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{workload: w.name, seed: 7, seconds: 0.1, trace: traced, scale: 100}
				if traced {
					cfg.traceFile = filepath.Join(t.TempDir(), "trace.json")
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err) // run itself rejects missing, extra and non-finite metrics
				}
				if !res.Correct || res.Failed != 0 || res.FailRatio != 0 || res.Attempted == 0 {
					t.Errorf("attempted %d, failed %d, fail_ratio %g, correct %v", res.Attempted, res.Failed, res.FailRatio, res.Correct)
				}
				if len(res.ModelDigest) != 64 || res.ModelValidation != "unvalidated" {
					t.Errorf("model digest %q, validation %q", res.ModelDigest, res.ModelValidation)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s is in BENCHMARK.json but was not emitted", m.Name)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g: a metric that does not apply must be absent, not zero", m.Name, got.Value)
					}
				}
				if traced {
					checkTrace(t, cfg.traceFile)
				}
			})
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ts   float64
			Dur  float64
			Args struct{ Req uint64 }
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	type interval struct{ start, end float64 }
	requests := map[uint64]interval{}
	for _, e := range doc.TraceEvents {
		if e.Name == requestSpan {
			requests[e.Args.Req] = interval{e.Ts, e.Ts + e.Dur}
		}
	}
	if len(requests) == 0 {
		t.Fatal("trace file holds no request spans")
	}
	const slack = 0.002 // µs: timestamps are rounded to the nanosecond
	children := 0
	for _, e := range doc.TraceEvents {
		if e.Name == requestSpan {
			continue
		}
		children++
		r, ok := requests[e.Args.Req]
		if !ok {
			t.Fatalf("span %s names request %d, which has no request span", e.Name, e.Args.Req)
		}
		if e.Ts < r.start-slack || e.Ts+e.Dur > r.end+slack {
			t.Fatalf("span %s [%f, %f] lies outside its request %d [%f, %f]", e.Name, e.Ts, e.Ts+e.Dur, e.Args.Req, r.start, r.end)
		}
	}
	if children == 0 {
		t.Fatal("trace file holds no layer spans")
	}
}
