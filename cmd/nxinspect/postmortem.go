package main

// postmortem.go is nxinspect's flight-recorder side: it reads a
// postmortem bundle (the JSONL file internal/flightrec writes when the
// SLO engine flips unhealthy) and renders the incident as a report —
// what triggered, the device table at that moment, the recent request
// digests, and the retained spans chained per RequestID. With -req it
// narrows to one request's full history: digest, every dispatch
// attempt's span, and the events that carry its ID.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nxzip/internal/obs"
	"nxzip/internal/stats"
	"nxzip/internal/telemetry"
)

// pmSpan mirrors the telemetry span's JSON line shape (the subset the
// report prints).
type pmSpan struct {
	ID           uint64 `json:"id"`
	Req          uint64 `json:"req"`
	Hop          int    `json:"hop"`
	Tenant       uint64 `json:"tenant"`
	Priority     string `json:"priority"`
	Op           string `json:"op"`
	Engine       int    `json:"engine"`
	HostNs       int64  `json:"host_ns"`
	InBytes      int    `json:"in_bytes"`
	OutBytes     int    `json:"out_bytes"`
	CC           string `json:"cc"`
	Retries      int    `json:"retries"`
	DeviceCycles int64  `json:"device_cycles"`
	Stages       []struct {
		Stage   string `json:"stage"`
		DurNs   int64  `json:"dur_ns"`
		Cycles  int64  `json:"cycles"`
		Attempt int    `json:"attempt"`
	} `json:"stages"`
}

// pmBundleLine is one JSONL line of a bundle.
type pmBundleLine struct {
	Kind    string            `json:"kind"`
	Time    time.Time         `json:"time"`
	Reason  string            `json:"reason"`
	Ordinal int64             `json:"ordinal"`
	Seq     uint64            `json:"seq"`
	Config  json.RawMessage   `json:"config"`
	Health  json.RawMessage   `json:"health"`
	Device  *obs.DeviceStatus `json:"device"`
	Digest  *telemetry.Digest `json:"digest"`
	Span    *pmSpan           `json:"span"`
	Event   *obs.Event        `json:"event"`
}

// openBundle resolves source — a bundle file, a directory of bundles
// (newest picked), "-" for stdin, or an http(s) URL — into a reader.
func openBundle(source string) (io.ReadCloser, string, error) {
	if source == "-" {
		return io.NopCloser(os.Stdin), "stdin", nil
	}
	if strings.HasPrefix(source, "http://") || strings.HasPrefix(source, "https://") {
		resp, err := http.Get(source)
		if err != nil {
			return nil, "", err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, "", fmt.Errorf("GET %s: status %d", source, resp.StatusCode)
		}
		return resp.Body, source, nil
	}
	fi, err := os.Stat(source)
	if err != nil {
		return nil, "", err
	}
	path := source
	if fi.IsDir() {
		ents, err := os.ReadDir(source)
		if err != nil {
			return nil, "", err
		}
		var names []string
		for _, e := range ents {
			if !e.IsDir() && strings.HasPrefix(e.Name(), "postmortem-") && strings.HasSuffix(e.Name(), ".jsonl") {
				names = append(names, e.Name())
			}
		}
		if len(names) == 0 {
			return nil, "", fmt.Errorf("no postmortem bundles in %s", source)
		}
		sort.Strings(names)
		path = filepath.Join(source, names[len(names)-1]) // newest
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	return f, path, nil
}

// runPostmortem reads and renders one bundle; req narrows the report to
// a single RequestID when nonzero; tenant narrows digests, spans and
// events to one view identity when nonzero.
func runPostmortem(source string, req, tenant uint64) error {
	in, name, err := openBundle(source)
	if err != nil {
		return err
	}
	defer in.Close()

	var (
		meta    *pmBundleLine
		config  json.RawMessage
		health  json.RawMessage
		devices []*obs.DeviceStatus
		digests []*telemetry.Digest
		spans   []*pmSpan
		events  []*obs.Event
	)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var ln pmBundleLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return fmt.Errorf("%s: line %d: %w", name, lineNo, err)
		}
		switch ln.Kind {
		case "meta":
			l := ln
			meta = &l
		case "config":
			config = ln.Config
		case "health":
			health = ln.Health
		case "device":
			devices = append(devices, ln.Device)
		case "digest":
			digests = append(digests, ln.Digest)
		case "span":
			spans = append(spans, ln.Span)
		case "event":
			events = append(events, ln.Event)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	if tenant != 0 {
		dg := digests[:0]
		for _, d := range digests {
			if d.Tenant == tenant {
				dg = append(dg, d)
			}
		}
		digests = dg
		sp := spans[:0]
		for _, s := range spans {
			if s.Tenant == tenant {
				sp = append(sp, s)
			}
		}
		spans = sp
		ev := events[:0]
		for _, e := range events {
			if e.Tenant == tenant {
				ev = append(ev, e)
			}
		}
		events = ev
	}

	fmt.Printf("postmortem: %s\n", name)
	if tenant != 0 {
		fmt.Printf("tenant:     %s (rows filtered)\n", telemetry.TenantLabel(tenant))
	}
	if meta != nil {
		fmt.Printf("triggered:  %s  (#%d, %d requests digested)\n",
			meta.Time.Format(time.RFC3339), meta.Ordinal, meta.Seq)
		fmt.Printf("reason:     %s\n", meta.Reason)
	}
	if len(config) > 0 {
		fmt.Printf("config:     %s\n", compactJSON(config))
	}
	if len(health) > 0 {
		fmt.Printf("health:     %s\n", compactJSON(health))
	}

	if req != 0 {
		printRequest(req, digests, spans, events)
		return nil
	}

	if len(devices) > 0 {
		fmt.Printf("\n%-14s %-5s %10s %10s %6s %5s\n", "device", "state", "dispatched", "requests", "util%", "quar")
		for _, d := range devices {
			st := "ok"
			if !d.Healthy {
				st = "QUAR"
			}
			fmt.Printf("%-14s %-5s %10d %10d %6.1f %5d\n",
				d.Label, st, d.Dispatched, d.Requests, 100*d.Util, d.Quarantines)
		}
	}

	// Digest summary: totals by outcome, then the interesting tail.
	var ok, degraded, errored, shed int
	for _, d := range digests {
		switch d.Outcome {
		case telemetry.OutcomeOK:
			ok++
		case telemetry.OutcomeDegraded:
			degraded++
		case telemetry.OutcomeError:
			errored++
		case telemetry.OutcomeShed:
			shed++
		}
	}
	fmt.Printf("\ndigests: %d held (%d ok, %d degraded, %d error, %d shed)\n", len(digests), ok, degraded, errored, shed)
	interesting := make([]*telemetry.Digest, 0, len(digests))
	for _, d := range digests {
		if d.Outcome != telemetry.OutcomeOK || d.Attempts > 1 {
			interesting = append(interesting, d)
		}
	}
	show := interesting
	header := "interesting (non-ok or re-dispatched)"
	if len(show) == 0 {
		// All clean: show the slowest few instead.
		sorted := append([]*telemetry.Digest(nil), digests...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].TotalUS > sorted[j].TotalUS })
		if len(sorted) > 10 {
			sorted = sorted[:10]
		}
		show = sorted
		header = "slowest"
	} else if len(show) > 20 {
		show = show[len(show)-20:]
	}
	if len(show) > 0 {
		fmt.Printf("\n%s:\n%-8s %-16s %-12s %-14s %-7s %-11s %10s %10s %8s %4s %-8s\n",
			header, "req", "op", "codec", "device", "tenant", "prio", "total-µs", "queue-µs", "in", "att", "outcome")
		for _, d := range show {
			codec := d.Codec
			if codec == "" {
				codec = "-"
			}
			fmt.Printf("%-8d %-16s %-12s %-14s %-7s %-11s %10.0f %10.0f %8s %4d %-8s\n",
				d.Req, d.Op, codec, d.Device, telemetry.TenantColumn(d.Tenant), prioCol(d.Priority),
				d.TotalUS, d.QueueUS,
				stats.Bytes(int64(d.InBytes)), d.Attempts, d.Outcome.String())
		}
	}

	fmt.Printf("\nretained spans: %d (rerun with -req <id> for one request's full history)\n", len(spans))
	if len(events) > 0 {
		fmt.Printf("\nevents (last %d):\n", len(events))
		for _, e := range events {
			if e.Req != 0 {
				fmt.Printf("  %s  %-11s %-14s req=%d %s\n", e.Time.Format("15:04:05.000"), e.Type, e.Device, e.Req, e.Detail)
			} else {
				fmt.Printf("  %s  %-11s %-14s %s\n", e.Time.Format("15:04:05.000"), e.Type, e.Device, e.Detail)
			}
		}
	}
	return nil
}

// prioCol renders the digest's priority column ("-" when the request
// predates priority stamping or came from a raw context).
func prioCol(p string) string {
	if p == "" {
		return "-"
	}
	return p
}

// printRequest renders one request's chained history: its digest, each
// dispatch attempt's span (ordered by hop), and its events.
func printRequest(req uint64, digests []*telemetry.Digest, spans []*pmSpan, events []*obs.Event) {
	fmt.Printf("\nrequest %d:\n", req)
	found := false
	for _, d := range digests {
		if d.Req != req {
			continue
		}
		found = true
		fmt.Printf("  digest: op=%s codec=%s device=%s tenant=%s prio=%s total=%.0fµs queue=%.0fµs in=%s out=%s cycles=%d attempts=%d outcome=%s\n",
			d.Op, d.Codec, d.Device, telemetry.TenantColumn(d.Tenant), prioCol(d.Priority), d.TotalUS, d.QueueUS,
			stats.Bytes(int64(d.InBytes)), stats.Bytes(int64(d.OutBytes)),
			d.EngineCycles, d.Attempts, d.Outcome.String())
	}
	if !found {
		fmt.Println("  (no digest held — request predates the ring window)")
	}
	var mine []*pmSpan
	for _, s := range spans {
		if s.Req == req {
			mine = append(mine, s)
		}
	}
	sort.SliceStable(mine, func(i, j int) bool { return mine[i].Hop < mine[j].Hop })
	for _, s := range mine {
		fmt.Printf("  span hop=%d op=%s engine=%d cc=%s host=%s cycles=%d retries=%d in=%s out=%s\n",
			s.Hop, s.Op, s.Engine, s.CC, time.Duration(s.HostNs), s.DeviceCycles, s.Retries,
			stats.Bytes(int64(s.InBytes)), stats.Bytes(int64(s.OutBytes)))
		for _, st := range s.Stages {
			fmt.Printf("    %-10s %12s %10d cycles  (attempt %d)\n",
				st.Stage, time.Duration(st.DurNs), st.Cycles, st.Attempt)
		}
	}
	if len(mine) == 0 {
		fmt.Println("  (no spans retained — request was not tail-sampled)")
	}
	for _, e := range events {
		if e.Req != req {
			continue
		}
		fmt.Printf("  event %s %-11s %-14s %s\n", e.Time.Format("15:04:05.000"), e.Type, e.Device, e.Detail)
	}
}

func compactJSON(raw json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}
