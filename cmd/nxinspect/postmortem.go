package main

// postmortem.go is nxinspect's flight-recorder side: it reads a
// postmortem bundle (the JSONL file internal/flightrec writes when the
// SLO engine flips unhealthy) and renders the incident as a report —
// what triggered, the device table at that moment, the recent request
// digests, and the retained spans chained per RequestID. With -req it
// narrows to one request's full history: digest, every dispatch
// attempt's span, and the events that carry its ID.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"nxzip/internal/flightrec"
	"nxzip/internal/stats"
	"nxzip/internal/telemetry"
)

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
		paths := flightrec.BundlePaths(source)
		if len(paths) == 0 {
			return nil, "", fmt.Errorf("no postmortem bundles in %s", source)
		}
		path = paths[len(paths)-1] // newest
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

	b, err := flightrec.ReadBundle(in)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	digests, spans, events := b.Digests, b.Spans, b.Events
	if tenant != 0 {
		digests = slices.DeleteFunc(digests, func(d telemetry.Digest) bool { return d.Tenant != tenant })
		spans = slices.DeleteFunc(spans, func(s telemetry.SpanRecord) bool { return s.Tenant != tenant })
		events = slices.DeleteFunc(events, func(e telemetry.Event) bool { return e.Tenant != tenant })
	}

	fmt.Printf("postmortem: %s\n", name)
	if tenant != 0 {
		fmt.Printf("tenant:     %s (rows filtered)\n", telemetry.TenantLabel(tenant))
	}
	if !b.Time.IsZero() {
		fmt.Printf("triggered:  %s  (#%d, %d requests digested)\n",
			b.Time.Format(time.RFC3339), b.Ordinal, b.Seq)
		fmt.Printf("reason:     %s\n", b.Reason)
	}
	// Neither section holds a value encoding/json can refuse.
	if b.Config != nil {
		config, _ := json.Marshal(b.Config)
		fmt.Printf("config:     %s\n", config)
	}
	if b.Health != nil {
		health, _ := json.Marshal(b.Health)
		fmt.Printf("health:     %s\n", health)
	}

	if req != 0 {
		printRequest(req, digests, spans, events)
		return nil
	}

	if len(b.Devices) > 0 {
		fmt.Printf("\n%-14s %-5s %10s %10s %6s %5s\n", "device", "state", "dispatched", "requests", "util%", "quar")
		for _, d := range b.Devices {
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
	interesting := make([]telemetry.Digest, 0, len(digests))
	for _, d := range digests {
		if d.Outcome != telemetry.OutcomeOK || d.Attempts > 1 {
			interesting = append(interesting, d)
		}
	}
	show := interesting
	header := "interesting (non-ok or re-dispatched)"
	if len(show) == 0 {
		// All clean: show the slowest few instead.
		sorted := append([]telemetry.Digest(nil), digests...)
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
func printRequest(req uint64, digests []telemetry.Digest, spans []telemetry.SpanRecord, events []telemetry.Event) {
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
	var mine []telemetry.SpanRecord
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
