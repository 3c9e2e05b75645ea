package flightrec

// postmortem.go turns the recorder's in-memory history into a durable
// JSONL bundle at the moment the node goes unhealthy. The trigger is
// wired to the SLO engine's healthy→unhealthy transition (and is also
// callable directly); each bundle is written atomically (temp file +
// rename) into a bounded directory, so a flapping node cannot fill the
// disk and a half-written bundle is never visible.
//
// Bundle format: one JSON object per line, each tagged with "kind":
//
//	meta      trigger time, reason, bundle ordinal, digest seq
//	config    the node configuration
//	health    the healthy and total device counts at trigger time
//	device    one line per device status
//	digest    one line per recent request digest (oldest first)
//	span      one line per retained span (full lifecycle stages)
//	event     one line per event-bus tail entry
//	snapshot  the merged metrics snapshot
//
// TriggerPostmortem writes one and ReadBundle reads one back into a
// Bundle. Everything is snapshotted under the recorder lock into memory
// first, then encoded and written with no locks held, so a trigger never
// stalls the request path on disk I/O.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"nxzip/internal/telemetry"
)

// bundlePrefix names postmortem files: <prefix><unix-nanos>.jsonl.
// Lexicographic order over the fixed-width timestamp is age order.
const bundlePrefix = "postmortem-"

// Bundle is a postmortem bundle read back, section by section.
type Bundle struct {
	meta
	Config   *Config
	Health   *Health
	Devices  []telemetry.DeviceStatus
	Digests  []telemetry.Digest
	Spans    []telemetry.SpanRecord
	Events   []telemetry.Event
	Snapshot *telemetry.Snapshot
}

// meta is a bundle's first line: when and why the trigger fired, the
// bundle's ordinal and how many requests had been digested.
type meta struct {
	Time    time.Time `json:"time,omitzero"`
	Reason  string    `json:"reason,omitempty"`
	Ordinal int64     `json:"ordinal,omitempty"`
	Seq     uint64    `json:"seq,omitempty"`
}

// line is one line of a bundle: its kind and the one section it carries.
type line struct {
	Kind string `json:"kind"`
	meta
	Config   *Config                `json:"config,omitempty"`
	Health   *Health                `json:"health,omitempty"`
	Device   telemetry.DeviceStatus `json:"device,omitzero"`
	Digest   telemetry.Digest       `json:"digest,omitzero"`
	Span     telemetry.SpanRecord   `json:"span,omitzero"`
	Event    telemetry.Event        `json:"event,omitzero"`
	Snapshot *telemetry.Snapshot    `json:"snapshot,omitempty"`
}

// ReadBundle reads a bundle back; a line of a kind it does not know is
// skipped.
func ReadBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	dec := json.NewDecoder(r)
	for n := 1; ; n++ {
		var l line
		if err := dec.Decode(&l); err == io.EOF {
			return &b, nil
		} else if err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		switch l.Kind {
		case "meta":
			b.meta = l.meta
		case "config":
			b.Config = l.Config
		case "health":
			b.Health = l.Health
		case "device":
			b.Devices = append(b.Devices, l.Device)
		case "digest":
			b.Digests = append(b.Digests, l.Digest)
		case "span":
			b.Spans = append(b.Spans, l.Span)
		case "event":
			b.Events = append(b.Events, l.Event)
		case "snapshot":
			b.Snapshot = l.Snapshot
		}
	}
}

// TriggerPostmortem captures the recorder's state into a bundle. The
// returned path is "" when the recorder has no dir (the trigger still
// counts and timestamps). Concurrent triggers serialize; each produces
// its own bundle.
func (r *Recorder) TriggerPostmortem(reason string) (string, error) {
	now := time.Now()
	ordinal := r.pmCount.Add(1)
	r.pmMu.Lock()
	r.lastAt, r.lastReason = now, reason
	r.pmMu.Unlock()

	if r.dir == "" {
		return "", nil
	}

	lines := []line{{Kind: "meta", meta: meta{now, reason, ordinal, r.Seq()}}}
	r.mu.Lock()
	srcs := r.srcs
	r.mu.Unlock()
	if srcs.Config != nil {
		lines = append(lines, line{Kind: "config", Config: srcs.Config()})
	}
	if srcs.Health != nil {
		lines = append(lines, line{Kind: "health", Health: srcs.Health()})
	}
	if srcs.Devices != nil {
		for _, d := range srcs.Devices() {
			lines = append(lines, line{Kind: "device", Device: d})
		}
	}
	for _, d := range r.Digests(0) {
		lines = append(lines, line{Kind: "digest", Digest: d})
	}
	// Retained spans are copied out under the recorder lock: the ring
	// reuses their storage.
	r.mu.Lock()
	for _, e := range r.ret.Last(0) {
		for i := range e.spans {
			lines = append(lines, line{Kind: "span", Span: e.spans[i].Record()})
		}
	}
	r.mu.Unlock()
	if srcs.Events != nil {
		for _, e := range srcs.Events(256) {
			lines = append(lines, line{Kind: "event", Event: e})
		}
	}
	if srcs.Snapshot != nil {
		lines = append(lines, line{Kind: "snapshot", Snapshot: srcs.Snapshot()})
	}

	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return "", err
		}
	}
	// Written aside and renamed into place, so a half-written bundle is
	// never listed.
	path := filepath.Join(r.dir, fmt.Sprintf("%s%020d.jsonl", bundlePrefix, now.UnixNano()))
	tmp := path + ".tmp"
	defer os.Remove(tmp)
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	paths := BundlePaths(r.dir)
	for _, old := range paths[:max(0, len(paths)-maxBundles)] {
		os.Remove(old)
	}
	return path, nil
}

// BundlePaths lists the postmortem bundles in dir, oldest first.
func BundlePaths(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var paths []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), bundlePrefix) && strings.HasSuffix(e.Name(), ".jsonl") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths
}

// Bundles lists the recorder's postmortem bundle paths, oldest first.
func (r *Recorder) Bundles() []string { return BundlePaths(r.dir) }

// PostmortemCount returns how many times the trigger fired.
func (r *Recorder) PostmortemCount() int64 { return r.pmCount.Load() }

// LastTrigger returns when and why the trigger last fired (zero time
// when it never has).
func (r *Recorder) LastTrigger() (time.Time, string) {
	r.pmMu.Lock()
	defer r.pmMu.Unlock()
	return r.lastAt, r.lastReason
}

// Handler serves the postmortem directory: GET <mount> lists bundles
// as JSON (newest first); GET <mount>/<name> streams one bundle. The
// handler is mounted by obs.Server at /debug/postmortems.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name := strings.Trim(strings.TrimPrefix(req.URL.Path, "/debug/postmortems"), "/")
		if name == "" {
			paths := r.Bundles()
			slices.Reverse(paths) // newest first: operators want the latest incident on top
			type entry struct {
				Name string `json:"name"`
				Size int64  `json:"size"`
			}
			out := struct {
				Count       int64     `json:"count"`
				LastTrigger time.Time `json:"last_trigger,omitzero"`
				LastReason  string    `json:"last_reason,omitempty"`
				Bundles     []entry   `json:"bundles"`
			}{Count: r.pmCount.Load(), Bundles: []entry{}}
			out.LastTrigger, out.LastReason = r.LastTrigger()
			for _, p := range paths {
				e := entry{Name: filepath.Base(p)}
				if fi, err := os.Stat(p); err == nil {
					e.Size = fi.Size()
				}
				out.Bundles = append(out.Bundles, e)
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(out)
			return
		}
		if strings.Contains(name, "/") || !strings.HasPrefix(name, bundlePrefix) || !strings.HasSuffix(name, ".jsonl") {
			http.Error(w, "no such bundle", http.StatusNotFound)
			return
		}
		f, err := os.Open(filepath.Join(r.dir, name))
		if err != nil {
			http.Error(w, "no such bundle", http.StatusNotFound)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/x-ndjson")
		if _, err := f.WriteTo(w); err != nil {
			return
		}
	})
}
