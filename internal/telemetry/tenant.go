package telemetry

import (
	"strconv"
	"strings"
)

// tenant.go is the tenant vocabulary, defined once: the root package's
// accounting plane writes these series, the root package re-exports the
// public names, and obs reads the rows back into per-tenant windows.

const (
	// TenantLatencyMetric is the per-tenant request-latency histogram
	// family, labeled "t<id>/<class>/<outcome>" (µs, total wall-clock at
	// the root API).
	TenantLatencyMetric = "nxzip.tenant.latency_us"
	// TenantQueueWaitMetric is the per-tenant receive-FIFO residency
	// histogram family, labeled "t<id>" (µs).
	TenantQueueWaitMetric = "nxzip.tenant.queue_wait_us"
	// TenantOverflowLabel is the label every view past the plane's label
	// cap shares, in place of "t<id>".
	TenantOverflowLabel = "tover"
)

// TenantLabel renders a tenant ID as its series label ("t42").
func TenantLabel(id uint64) string { return "t" + strconv.FormatUint(id, 10) }

// ParseTenantLabel inverts TenantLabel: the ID of a "t<id>" label, or
// (0, false) for anything else, the overflow label included.
func ParseTenantLabel(label string) (uint64, bool) {
	if len(label) < 2 || label[0] != 't' {
		return 0, false
	}
	id, err := strconv.ParseUint(label[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// TenantLatencyLabel renders a latency row's label from its tenant
// label, class name and outcome.
func TenantLatencyLabel(tenant, class string, o Outcome) string {
	return tenant + "/" + class + "/" + o.String()
}

// ParseTenantRow inverts both row shapes: a queue-wait row's tenant
// label, and TenantLatencyLabel. tenant is "t<id>" or the overflow
// label; o is a latency row's outcome and OutcomeCount on a queue-wait
// row. ok is false for every other shape.
func ParseTenantRow(label string) (tenant string, o Outcome, ok bool) {
	tenant, rest, latency := strings.Cut(label, "/")
	if _, id := ParseTenantLabel(tenant); !id && tenant != TenantOverflowLabel {
		return "", 0, false
	}
	if !latency {
		return tenant, OutcomeCount, true
	}
	_, outcome, ok := strings.Cut(rest, "/")
	for o = 0; ok && o < OutcomeCount; o++ {
		if outcome == o.String() {
			return tenant, o, true
		}
	}
	return "", 0, false
}

// TenantColumn renders a digest's tenant for a table column: its label,
// or "-" for a request no view issued (a raw context).
func TenantColumn(id uint64) string {
	if id == 0 {
		return "-"
	}
	return TenantLabel(id)
}
