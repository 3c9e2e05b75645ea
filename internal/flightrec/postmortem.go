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
//	health    the SLO report at trigger time
//	device    one line per device status
//	digest    one line per recent request digest (oldest first)
//	span      one line per retained span (full lifecycle stages)
//	event     one line per event-bus tail entry
//	snapshot  the merged metrics snapshot
//
// Everything is snapshotted under the recorder lock into memory first,
// then encoded and written with no locks held, so a trigger never
// stalls the request path on disk I/O.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nxzip/internal/obs"
	"nxzip/internal/telemetry"
)

// bundlePrefix names postmortem files: <prefix><unix-nanos>.jsonl.
// Lexicographic order over the fixed-width timestamp is age order.
const bundlePrefix = "postmortem-"

type pmLine struct {
	Kind string `json:"kind"`

	// meta
	Time    time.Time `json:"time,omitempty"`
	Reason  string    `json:"reason,omitempty"`
	Ordinal int64     `json:"ordinal,omitempty"`
	Seq     uint64    `json:"seq,omitempty"`

	// payload sections (one non-nil per line)
	Config   any                 `json:"config,omitempty"`
	Health   any                 `json:"health,omitempty"`
	Device   *obs.DeviceStatus   `json:"device,omitempty"`
	Digest   *telemetry.Digest   `json:"digest,omitempty"`
	Span     *telemetry.Span     `json:"span,omitempty"`
	Event    *obs.Event          `json:"event,omitempty"`
	Snapshot *telemetry.Snapshot `json:"snapshot,omitempty"`
}

// TriggerPostmortem captures the recorder's state into a bundle. The
// returned path is "" when no Dir is configured (the trigger still
// counts and timestamps). Concurrent triggers serialize; each produces
// its own bundle.
func (r *Recorder) TriggerPostmortem(reason string) (string, error) {
	now := time.Now()
	ordinal := r.pmCount.Add(1)
	r.pmMu.Lock()
	r.lastAt, r.lastReason = now, reason
	r.pmMu.Unlock()

	if r.opt.Dir == "" {
		return "", nil
	}

	// Snapshot everything into memory first. Retained spans must be
	// serialized under the recorder lock — eviction recycles them.
	var lines []pmLine
	lines = append(lines, pmLine{Kind: "meta", Time: now, Reason: reason, Ordinal: ordinal, Seq: r.Seq()})

	r.mu.Lock()
	srcs := r.srcs
	r.mu.Unlock()
	if srcs.Config != nil {
		lines = append(lines, pmLine{Kind: "config", Config: srcs.Config()})
	}
	if srcs.Health != nil {
		lines = append(lines, pmLine{Kind: "health", Health: srcs.Health()})
	}
	if srcs.Devices != nil {
		for _, d := range srcs.Devices() {
			d := d
			lines = append(lines, pmLine{Kind: "device", Device: &d})
		}
	}
	for _, d := range r.Digests(0) {
		d := d
		lines = append(lines, pmLine{Kind: "digest", Digest: &d})
	}
	// Serialize retained spans to JSON inside the lock, park the raw
	// bytes, and emit them after: the span pointers are only stable
	// while held.
	var spanRaw []json.RawMessage
	r.mu.Lock()
	for _, e := range r.ret.Last(0) {
		for _, s := range e.spans[:e.n] {
			if raw, err := json.Marshal(s); err == nil {
				spanRaw = append(spanRaw, raw)
			}
		}
	}
	r.mu.Unlock()
	if srcs.Events != nil {
		for _, e := range srcs.Events(256) {
			e := e
			lines = append(lines, pmLine{Kind: "event", Event: &e})
		}
	}
	if srcs.Snapshot != nil {
		lines = append(lines, pmLine{Kind: "snapshot", Snapshot: srcs.Snapshot()})
	}

	if err := os.MkdirAll(r.opt.Dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s%020d.jsonl", bundlePrefix, now.UnixNano())
	path := filepath.Join(r.opt.Dir, name)
	tmp, err := os.CreateTemp(r.opt.Dir, ".pm-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	werr := func() error {
		for _, ln := range lines {
			if ln.Kind == "event" || ln.Kind == "snapshot" {
				continue // events and snapshot go after spans, below
			}
			if err := enc.Encode(ln); err != nil {
				return err
			}
		}
		for _, raw := range spanRaw {
			if _, err := fmt.Fprintf(w, `{"kind":"span","span":%s}`+"\n", raw); err != nil {
				return err
			}
		}
		for _, ln := range lines {
			if ln.Kind != "event" && ln.Kind != "snapshot" {
				continue
			}
			if err := enc.Encode(ln); err != nil {
				return err
			}
		}
		return w.Flush()
	}()
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	r.pruneBundles()
	return path, nil
}

// pruneBundles deletes the oldest bundles beyond MaxBundles.
func (r *Recorder) pruneBundles() {
	names := r.bundleNames()
	for len(names) > r.opt.MaxBundles {
		os.Remove(filepath.Join(r.opt.Dir, names[0]))
		names = names[1:]
	}
}

// bundleNames lists bundle file names, oldest first.
func (r *Recorder) bundleNames() []string {
	ents, err := os.ReadDir(r.opt.Dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), bundlePrefix) && strings.HasSuffix(e.Name(), ".jsonl") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// Bundles lists postmortem bundle paths, oldest first.
func (r *Recorder) Bundles() []string {
	names := r.bundleNames()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(r.opt.Dir, n)
	}
	return out
}

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
			names := r.bundleNames()
			// Newest first: operators want the latest incident on top.
			for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
				names[i], names[j] = names[j], names[i]
			}
			type entry struct {
				Name string `json:"name"`
				Size int64  `json:"size"`
			}
			out := struct {
				Count       int64     `json:"count"`
				LastTrigger time.Time `json:"last_trigger,omitempty"`
				LastReason  string    `json:"last_reason,omitempty"`
				Bundles     []entry   `json:"bundles"`
			}{Count: r.pmCount.Load(), Bundles: []entry{}}
			out.LastTrigger, out.LastReason = r.LastTrigger()
			for _, n := range names {
				e := entry{Name: n}
				if fi, err := os.Stat(filepath.Join(r.opt.Dir, n)); err == nil {
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
		if strings.Contains(name, "/") || !strings.HasPrefix(name, bundlePrefix) {
			http.Error(w, "no such bundle", http.StatusNotFound)
			return
		}
		f, err := os.Open(filepath.Join(r.opt.Dir, name))
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
