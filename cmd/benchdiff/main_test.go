package main

import (
	"cmp"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baseOut is a synthetic `bench -out` file: one workload, untraced and
// traced, with host and model rows, and a ledger row in the traced run.
const baseOut = `[
 {"workload": "bulk_oneshot", "traced": false, "model_digest": "aaaa", "fail_ratio": 0,
  "metrics": {"compress_mbps": {"value": 40, "clock": "host", "better": "higher", "bound": 0.25, "noise": 0.05},
              "model_compress_gbs": {"value": 1.25, "clock": "model"},
              "ratio": {"value": 3.5, "clock": "model"}}},
 {"workload": "bulk_oneshot", "traced": true, "model_digest": "aaaa",
  "metrics": {"lz77.hw.candidates_per_probe": {"value": 2.5, "clock": "model"},
              "lz77.hw.ns_per_byte": {"value": 30, "clock": "host", "better": "lower"}}}
]`

// write puts body in a file of the test's temporary directory.
func write(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// untraced is a synthetic `bench -result` file of bulk_oneshot.
func untraced(digest, compress, noise, ratio, failRatio string) string {
	return `{"workload": "bulk_oneshot", "seed": 1, "traced": false, "model_digest": "` + digest + `", "fail_ratio": ` + failRatio + `,
	 "metrics": {"compress_mbps": {"value": ` + compress + `, "clock": "host", "better": "higher", "bound": 0.25, "noise": ` + noise + `},
	             "model_compress_gbs": {"value": 1.25, "clock": "model"},
	             "ratio": {"value": ` + ratio + `, "clock": "model"}}}`
}

func TestDiff(t *testing.T) {
	for _, tc := range []struct {
		name, base, cur string // base "" is baseOut
		modelOnly       bool
		failed          int
		line            string
	}{
		{"identical", "", baseOut, false, 0, "ok   bulk_oneshot (traced): model_digest aaaa"},
		{"ledger row prints", "", strings.Replace(baseOut, `"value": 30`, `"value": 60`, 1), false, 0,
			"     bulk_oneshot (traced) lz77.hw.ns_per_byte: host 30 -> 60 (x2.000)"},
		{"host row moves", "", untraced("aaaa", "55", "0.05", "3.5", "0"), false, 0,
			"ok   bulk_oneshot compress_mbps: host 40 -> 55 (x1.375; higher, limit 25%)"},
		{"host row worse than its bound", "", untraced("aaaa", "28", "0.05", "3.5", "0"), false, 1,
			"FAIL bulk_oneshot compress_mbps: host 40 -> 28 (x0.700; higher, limit 25%)"},
		{"host row worse inside the noise", untraced("aaaa", "40", "0.2", "3.5", "0"), untraced("aaaa", "28", "0.05", "3.5", "0"), false, 0,
			"ok   bulk_oneshot compress_mbps: host 40 -> 28 (x0.700; higher, limit 40%)"},
		{"base noise leaves a host row ungated", untraced("aaaa", "40", "0.3", "3.5", "0"), untraced("aaaa", "28", "0.05", "3.5", "0"), false, 0,
			"WARN bulk_oneshot compress_mbps: base noise 30% gives limit 60% (bound 25%): ungated"},
		{"host row worse inside the new run's noise", "", untraced("aaaa", "28", "0.2", "3.5", "0"), false, 1,
			"FAIL bulk_oneshot compress_mbps: host 40 -> 28 (x0.700; higher, limit 25%)"},
		{"host row too noisy to judge", "", untraced("aaaa", "40", "0.3", "3.5", "0"), false, 1,
			"FAIL bulk_oneshot compress_mbps: host 40 -> 40 (x1.000; higher, limit 25%): too noisy to judge, noise 30%"},
		{"host row as noisy as the limit", "", untraced("aaaa", "40", "0.25", "3.5", "0"), false, 0,
			"ok   bulk_oneshot compress_mbps: host 40 -> 40 (x1.000; higher, limit 25%)"},
		{"host row too noisy, model only", "", untraced("aaaa", "40", "0.3", "3.5", "0"), true, 0,
			"     bulk_oneshot compress_mbps: host 40 -> 40 (x1.000)"},
		{"host row worse, model only", "", untraced("aaaa", "28", "0.05", "3.5", "0"), true, 0,
			"     bulk_oneshot compress_mbps: host 40 -> 28 (x0.700)"},
		{"fail_ratio up", "", untraced("aaaa", "40", "0.05", "3.5", "0.01"), false, 1, "FAIL bulk_oneshot: fail_ratio 0 -> 0.01"},
		{"fail_ratio up, model only", "", untraced("aaaa", "40", "0.05", "3.5", "0.01"), true, 0, "ok   bulk_oneshot: model_digest aaaa"},
		{"model row moves", "", untraced("aaaa", "40", "0.05", "3.5000001", "0"), true, 1, "FAIL bulk_oneshot ratio: model 3.5 -> 3.5000001"},
		{"digest moves", "", untraced("bbbb", "40", "0.05", "3.5", "0"), true, 1, "FAIL bulk_oneshot: model_digest aaaa -> bbbb"},
		{"traced model row moves", "", strings.Replace(baseOut, "2.5", "2.75", 1), false, 0, ""},
		{"model row missing", "", strings.Replace(untraced("aaaa", "40", "0.05", "3.5", "0"), `"model_compress_gbs"`, `"other_gbs"`, 1), true, 2,
			"FAIL bulk_oneshot model_compress_gbs: model row in only one file"},
		{"host row missing", "", strings.Replace(untraced("aaaa", "40", "0.05", "3.5", "0"), `"compress_mbps"`, `"other_mbps"`, 1), false, 2,
			"FAIL bulk_oneshot compress_mbps: host row in only one file"},
		{"host row missing, model only", "", strings.Replace(untraced("aaaa", "40", "0.05", "3.5", "0"), `"compress_mbps"`, `"other_mbps"`, 1), true, 0,
			"     bulk_oneshot compress_mbps: host row in only one file"},
		{"traced host row missing", "", strings.Replace(baseOut, `"lz77.hw.ns_per_byte"`, `"other"`, 1), false, 0,
			"     bulk_oneshot (traced) lz77.hw.ns_per_byte: host row in only one file"},
		{"untraced workload missing", "", `{"workload": "bulk_oneshot", "traced": true, "model_digest": "aaaa"}`, false, 1,
			"FAIL bulk_oneshot: no new result"},
		{"unknown workload", "", `{"workload": "codec_mix", "model_digest": "aaaa"}`, false, 2, "FAIL codec_mix: no base result"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := load(write(t, "base.json", cmp.Or(tc.base, baseOut)))
			if err != nil {
				t.Fatal(err)
			}
			cur, err := load(write(t, "new.json", tc.cur))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if got := diff(&out, base, cur, !tc.modelOnly); got != tc.failed {
				t.Fatalf("%d rows failed, want %d:\n%s", got, tc.failed, out.String())
			}
			if !strings.Contains(out.String(), tc.line) {
				t.Fatalf("output lacks %q:\n%s", tc.line, out.String())
			}
		})
	}
}

// run is a synthetic untraced `bench -result` of one workload at seed,
// with a host row (compress_mbps), a lower-is-better host row
// (allocs_per_op), a model row with its bound and a ledger-style row that
// carries none.
func run(seed int, compress, allocs float64, failRatio float64) []result {
	return []result{{Workload: "bulk_oneshot", Seed: int64(seed), FailRatio: failRatio, Metrics: map[string]metric{
		"compress_mbps": {Value: compress, Clock: "host", Better: "higher", Bound: 0.25},
		"allocs_per_op": {Value: allocs, Clock: "host", Better: "lower", Bound: 0.03},
		"ratio":         {Value: 3.5, Clock: "model", Better: "higher", Bound: 0.05},
		"lz77.hw.ns":    {Value: 30, Clock: "host", Better: "lower"},
	}}}
}

func TestPairs(t *testing.T) {
	// Ten pairs at seed 1 (compress: the parent reads 40 ± 2, the change
	// wins seven, ties one, loses two; allocs: the parent spreads wider than
	// its 3 % bound) and one held-out pair at seed 9.
	parents := []float64{38, 39, 40, 40, 40, 41, 42, 40, 39, 41}
	changes := []float64{39, 40, 41, 41, 41, 42, 43, 40, 38, 40}
	var runs [][]result
	for i := range parents {
		allocs := 10 + float64(i%4)
		runs = append(runs, run(1, parents[i], allocs, 0), run(1, changes[i], allocs-0.1, 0))
	}
	runs = append(runs, run(9, 44, 10, 0), run(9, 45, 10, 0))
	var out strings.Builder
	if failed := pairs(&out, runs); failed != 0 {
		t.Fatalf("%d rows failed:\n%s", failed, out.String())
	}
	for _, line := range []string{
		"bulk_oneshot fail_ratio: parent 0, change 0\n",
		"  bulk_oneshot compress_mbps (higher, bound 25%): parent 40 [39.25, 40.75] -> change 40.5, wins 7/10, inside bound\n",
		"  held-out seed 9: bulk_oneshot compress_mbps parent 44 -> change 45\n",
		"  bulk_oneshot allocs_per_op (lower, bound 3%): parent 11 [10.25, 12] -> change 10.9, wins 10/10, unresolved\n",
		"  bulk_oneshot ratio (higher, bound 5%): parent 3.5 [3.5, 3.5] -> change 3.5, wins 0/10, inside bound\n",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("output lacks %q:\n%s", line, out.String())
		}
	}
	if strings.Contains(out.String(), "lz77.hw.ns") {
		t.Errorf("a row without a bound made the table:\n%s", out.String())
	}

	// The change slower by a third, and failing where the parent did not.
	runs = nil
	for i := range parents {
		runs = append(runs, run(1, parents[i], 10, 0), run(1, parents[i]*2/3, 10, 0.01))
	}
	out.Reset()
	if failed := pairs(&out, runs); failed != 2 {
		t.Fatalf("%d rows failed, want 2 (compress_mbps, fail_ratio):\n%s", failed, out.String())
	}
	if !strings.Contains(out.String(), "wins 0/10, outside bound") {
		t.Errorf("compress_mbps is not outside its bound:\n%s", out.String())
	}

	// One change run lacks a metric and another the whole workload.
	runs = nil
	for i := range parents {
		runs = append(runs, run(1, parents[i], 10, 0), run(1, parents[i], 10, 0))
	}
	delete(runs[1][0].Metrics, "allocs_per_op")
	runs[3] = []result{{Workload: "codec_mix", Seed: 1}}
	out.Reset()
	if failed := pairs(&out, runs); failed != 3 {
		t.Fatalf("%d rows failed, want 3 (allocs_per_op, compress_mbps, ratio):\n%s", failed, out.String())
	}
	for _, line := range []string{
		"  bulk_oneshot allocs_per_op: missing from 2 change runs\n",
		"  bulk_oneshot compress_mbps: missing from 1 change runs\n",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("output lacks %q:\n%s", line, out.String())
		}
	}
}

func TestLoadRejects(t *testing.T) {
	for _, body := range []string{`{"workload": `, `[{"traced": true}]`, `"text"`} {
		if _, err := load(write(t, "bad.json", body)); err == nil {
			t.Errorf("load(%s) succeeded", body)
		}
	}
	if _, err := load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("load of a missing file succeeded")
	}
}
