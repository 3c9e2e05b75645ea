package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baseOut is a synthetic `bench -out` file: one workload, untraced and
// traced, with host and model rows.
const baseOut = `[
 {"workload": "bulk_oneshot", "traced": false, "model_digest": "aaaa",
  "metrics": {"compress_mbps": {"value": 40, "clock": "host"},
              "model_compress_gbs": {"value": 1.25, "clock": "model"},
              "ratio": {"value": 3.5, "clock": "model"}}},
 {"workload": "bulk_oneshot", "traced": true, "model_digest": "aaaa",
  "metrics": {"lz77.hw.candidates_per_probe": {"value": 2.5, "clock": "model"}}}
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
func untraced(digest, compress, ratio string) string {
	return `{"workload": "bulk_oneshot", "seed": 1, "traced": false, "model_digest": "` + digest + `",
	 "metrics": {"compress_mbps": {"value": ` + compress + `, "clock": "host"},
	             "model_compress_gbs": {"value": 1.25, "clock": "model"},
	             "ratio": {"value": ` + ratio + `, "clock": "model"}}}`
}

func TestDiff(t *testing.T) {
	for _, tc := range []struct {
		name, cur string
		failed    int
		line      string
	}{
		{"identical", baseOut, 0, "ok   bulk_oneshot (traced): model_digest aaaa"},
		{"host row moves", untraced("aaaa", "55", "3.5"), 0, "compress_mbps: host 40 -> 55 (x1.375)"},
		{"model row moves", untraced("aaaa", "40", "3.5000001"), 1, "FAIL bulk_oneshot ratio: model 3.5 -> 3.5000001"},
		{"digest moves", untraced("bbbb", "40", "3.5"), 1, "FAIL bulk_oneshot: model_digest aaaa -> bbbb"},
		{"traced model row moves", strings.Replace(baseOut, "2.5", "2.75", 1), 0, ""},
		{"model row missing", `{"workload": "bulk_oneshot", "model_digest": "aaaa",
		  "metrics": {"ratio": {"value": 3.5, "clock": "model"}}}`, 1, "model_compress_gbs: model row in only one file"},
		{"unknown workload", `{"workload": "codec_mix", "model_digest": "aaaa"}`, 1, "FAIL codec_mix: no base result"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := load(write(t, "base.json", baseOut))
			if err != nil {
				t.Fatal(err)
			}
			cur, err := load(write(t, "new.json", tc.cur))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if got := diff(&out, base, cur); got != tc.failed {
				t.Fatalf("%d rows failed, want %d:\n%s", got, tc.failed, out.String())
			}
			if !strings.Contains(out.String(), tc.line) {
				t.Fatalf("output lacks %q:\n%s", tc.line, out.String())
			}
		})
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
