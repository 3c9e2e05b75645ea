// Command benchdiff compares bench/ result files and fails when the
// model clock moved:
//
//	benchdiff base.json new.json [new.json...]
//
// Each file is what `go run ./bench -out` writes (an array of results)
// or what `-result` writes (one result). Every result of the new files
// is matched to the base result of the same workload and trace mode.
// benchdiff fails (exit 1) when a workload's model_digest differs, or
// when an untraced run's clock=model metric differs in any digit. A
// traced run's model rows include time-boxed counters, so only its
// digest is compared. Host-clock rows are printed with their ratio and
// never fail. Exit 2 is a usage or read error.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

// result is the part of a bench/ result benchdiff reads.
type result struct {
	Workload    string            `json:"workload"`
	Traced      bool              `json:"traced"`
	ModelDigest string            `json:"model_digest"`
	Metrics     map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Clock string  `json:"clock"`
}

func (r result) key() string {
	if r.Traced {
		return r.Workload + " (traced)"
	}
	return r.Workload
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

// diff writes one line per compared row and returns how many failed.
func diff(w io.Writer, base, cur []result) int {
	byKey := make(map[string]result, len(base))
	for _, r := range base {
		byKey[r.key()] = r
	}
	failed := 0
	fail := func(format string, args ...any) {
		failed++
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
	}
	for _, c := range cur {
		b, ok := byKey[c.key()]
		if !ok {
			fail("%s: no base result", c.key())
			continue
		}
		if b.ModelDigest != c.ModelDigest {
			fail("%s: model_digest %s -> %s", c.key(), b.ModelDigest, c.ModelDigest)
		} else {
			fmt.Fprintf(w, "ok   %s: model_digest %s\n", c.key(), c.ModelDigest)
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
			case inBase && inCur && !c.Traced:
				fmt.Fprintf(w, "     %s %s: host %.4g -> %.4g (x%.3f)\n", c.key(), name, bm.Value, cm.Value, cm.Value/bm.Value)
			}
		}
	}
	return failed
}

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff base.json new.json [new.json...]")
		os.Exit(2)
	}
	base, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var cur []result
	for _, path := range os.Args[2:] {
		rs, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		cur = append(cur, rs...)
	}
	if n := diff(os.Stdout, base, cur); n > 0 {
		fmt.Printf("benchdiff: %d rows differ from %s\n", n, os.Args[1])
		os.Exit(1)
	}
}
