package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"nxzip/internal/telemetry"
)

// prom.go renders a telemetry snapshot in the Prometheus text
// exposition format (version 0.0.4) and parses it back — the round-trip
// the acceptance tests check, over a live node among them.
//
// Mapping: instrument names keep their registry spelling with
// non-metric characters folded to '_' ("nx.requests" → "nx_requests");
// registry labels land under a single "label" key, so the per-device
// rows of a merged node snapshot become label="drawer0/cp1/…" series
// and the aggregate rows stay unlabeled. Counters map to counter,
// gauges to two gauge series (value plus <name>_max for the high-water
// mark), histograms to native Prometheus histograms — cumulative
// <name>_bucket{le="…"} series over the registry's fixed bucket ladder
// plus the le="+Inf", _sum and _count samples — so server-side
// histogram_quantile works across scrapes and instances. The sample
// ring's point-in-time percentiles remain available as <name>_p50 /
// _p95 / _p99 gauge families (snapshots without bucket data, e.g.
// synthetic ones, emit only the +Inf bucket).

// promName folds a registry instrument name into the Prometheus metric
// name charset [a-zA-Z0-9_:].
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the exposition format.
func promLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// series renders one sample line: name, optional registry label,
// optional extra label pair (quantile), and the value.
func series(name, label, extraKey, extraVal string) string {
	var parts []string
	if label != "" {
		parts = append(parts, `label="`+promLabel(label)+`"`)
	}
	if extraKey != "" {
		parts = append(parts, extraKey+`="`+extraVal+`"`)
	}
	if len(parts) == 0 {
		return name
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// promFloat formats a value the way Prometheus expects (no exponent
// surprises for the integer-valued counters).
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm renders the snapshot as Prometheus text exposition. The
// snapshot's name-then-label ordering means each family's TYPE header
// is emitted exactly once, immediately before its samples.
func WriteProm(w io.Writer, snap *telemetry.Snapshot) error {
	bw := bufio.NewWriter(w)
	last := ""
	for _, c := range snap.Counters {
		name := promName(c.Name)
		if name != last {
			fmt.Fprintf(bw, "# TYPE %s counter\n", name)
			last = name
		}
		fmt.Fprintf(bw, "%s %d\n", series(name, c.Label, "", ""), c.Value)
	}
	for i := 0; i < len(snap.Gauges); {
		j := i
		for j < len(snap.Gauges) && snap.Gauges[j].Name == snap.Gauges[i].Name {
			j++
		}
		name := promName(snap.Gauges[i].Name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		for _, g := range snap.Gauges[i:j] {
			fmt.Fprintf(bw, "%s %d\n", series(name, g.Label, "", ""), g.Value)
		}
		fmt.Fprintf(bw, "# TYPE %s_max gauge\n", name)
		for _, g := range snap.Gauges[i:j] {
			fmt.Fprintf(bw, "%s %d\n", series(name+"_max", g.Label, "", ""), g.Max)
		}
		i = j
	}
	bounds := telemetry.BucketBounds()
	for i := 0; i < len(snap.Histograms); {
		j := i
		for j < len(snap.Histograms) && snap.Histograms[j].Name == snap.Histograms[i].Name {
			j++
		}
		name := promName(snap.Histograms[i].Name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		for _, h := range snap.Histograms[i:j] {
			// Exemplars render as OpenMetrics-style suffixes on the bucket
			// lines: `… # {req_id="42"} <value>` — the RequestID of the most
			// recent request to land in the bucket, resolvable against the
			// flight recorder's digest ring.
			ex := h.Exemplars
			if len(ex) != len(bounds)+1 {
				ex = nil
			}
			if len(h.Buckets) == len(bounds) {
				for k, b := range bounds {
					fmt.Fprintf(bw, "%s %d", series(name+"_bucket", h.Label, "le", promFloat(b)), h.Buckets[k])
					if ex != nil && ex[k].Req != 0 {
						fmt.Fprintf(bw, " # {req_id=\"%d\"} %s", ex[k].Req, promFloat(ex[k].Value))
					}
					fmt.Fprintln(bw)
				}
			}
			fmt.Fprintf(bw, "%s %d", series(name+"_bucket", h.Label, "le", "+Inf"), h.Count)
			if ex != nil && ex[len(bounds)].Req != 0 {
				fmt.Fprintf(bw, " # {req_id=\"%d\"} %s", ex[len(bounds)].Req, promFloat(ex[len(bounds)].Value))
			}
			fmt.Fprintln(bw)
			fmt.Fprintf(bw, "%s %s\n", series(name+"_sum", h.Label, "", ""), promFloat(h.Sum))
			fmt.Fprintf(bw, "%s %d\n", series(name+"_count", h.Label, "", ""), h.Count)
		}
		for _, p := range []struct {
			suffix string
			value  func(telemetry.HistogramSnapshot) float64
		}{
			{"p50", func(h telemetry.HistogramSnapshot) float64 { return h.P50 }},
			{"p95", func(h telemetry.HistogramSnapshot) float64 { return h.P95 }},
			{"p99", func(h telemetry.HistogramSnapshot) float64 { return h.P99 }},
		} {
			fname := name + "_" + p.suffix
			fmt.Fprintf(bw, "# TYPE %s gauge\n", fname)
			for _, h := range snap.Histograms[i:j] {
				fmt.Fprintf(bw, "%s %s\n", series(fname, h.Label, "", ""), promFloat(p.value(h)))
			}
		}
		i = j
	}
	return bw.Flush()
}

// promScan walks a sample line tracking quote state (with proper
// backslash-escape handling — a label value ending in an escaped
// backslash must not be read as an escaped quote) and brace depth,
// reporting the last space and the first '#' seen outside both. Either
// is -1 when absent.
func promScan(line string) (lastSpace, comment int) {
	lastSpace, comment = -1, -1
	depth := 0
	inQuote, esc := false, false
	for i := 0; i < len(line); i++ {
		ch := line[i]
		if inQuote {
			switch {
			case esc:
				esc = false
			case ch == '\\':
				esc = true
			case ch == '"':
				inQuote = false
			}
			continue
		}
		switch ch {
		case '"':
			inQuote = true
		case '{':
			depth++
		case '}':
			depth--
		case ' ':
			if depth == 0 {
				lastSpace = i
			}
		case '#':
			if depth == 0 {
				return lastSpace, i
			}
		}
	}
	return lastSpace, -1
}

// ParseProm reads Prometheus text exposition and returns every sample
// keyed by its series text exactly as WriteProm renders it (name plus
// sorted-as-written label set). It understands the subset WriteProm
// emits — including the OpenMetrics exemplar suffixes on bucket lines,
// which are stripped — enough for the round-trip checks — and rejects
// malformed sample lines.
func ParseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// An exemplar rides the sample line after a '#' outside quotes and
		// braces; the sample itself ends there.
		if _, comment := promScan(line); comment >= 0 {
			line = strings.TrimSpace(line[:comment])
		}
		// The series may contain spaces inside quoted label values; the
		// value is everything after the last space outside braces.
		cut, _ := promScan(line)
		if cut < 0 {
			return nil, fmt.Errorf("obs: prom line %d: no value: %q", lineNo, line)
		}
		key := strings.TrimSpace(line[:cut])
		v, err := strconv.ParseFloat(strings.TrimSpace(line[cut+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("obs: prom line %d: bad value: %q", lineNo, line)
		}
		if key == "" {
			return nil, fmt.Errorf("obs: prom line %d: empty series: %q", lineNo, line)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// PromSeries returns the series key WriteProm uses for a plain
// counter/gauge sample — test helpers compare snapshot values against
// ParseProm output through it.
func PromSeries(name, label string) string {
	return series(promName(name), label, "", "")
}
