package telemetry

// digest.go is the flight recorder's cheap half: a fixed-size digest per
// request — identity, size, cost, outcome — recorded for EVERY request
// into a bounded Ring. Where a Span is the full story of one request
// (and is only retained for interesting requests), the digest ring is
// the always-on index: constant size, no pointers into request data,
// one mutexed struct copy per request.

// Outcome classifies how a request ended.
type Outcome uint8

const (
	// OutcomeOK is a device-path success.
	OutcomeOK Outcome = iota
	// OutcomeError is a terminal failure surfaced to the caller.
	OutcomeError
	// OutcomeDegraded is a success produced by the software fallback.
	OutcomeDegraded
	// OutcomeShed is a request refused by the admission gate under
	// overload — no device or software cycles were spent on it.
	OutcomeShed

	// OutcomeCount sizes per-outcome arrays.
	OutcomeCount
)

var outcomeNames = [...]string{"ok", "error", "degraded", "shed"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "outcome?"
}

// Digest is the fixed-size flight record of one root-level request.
// String fields hold constant strings (function-code names, device
// labels), so recording a digest copies no request data and performs no
// allocation.
type Digest struct {
	// Seq is the digest ring's monotone record number, stamped when the
	// flight recorder completes the request.
	Seq uint64 `json:"seq"`
	// Req is the root-minted RequestID shared with the request's spans,
	// events and errors.
	Req uint64 `json:"req"`
	// Op is the function-code name ("compress-dht", "decompress", …).
	Op string `json:"op"`
	// Codec names the codec family the request ran under ("deflate",
	// "842", "lz4", or "deflate+lz4" for a transcode). Empty in digests
	// recorded before codec-plural dispatch existed.
	Codec string `json:"codec,omitempty"`
	// Device is the serving device's label, "software" for fallback
	// results, "" when the request failed before any device ran it.
	Device string `json:"device"`
	// Tenant is the VAS context ID of the view that issued the request —
	// the same identity the admission gate quotas on. 0 in digests
	// recorded before tenant accounting existed.
	Tenant uint64 `json:"tenant,omitempty"`
	// Priority is the admission class the request carried ("interactive",
	// "batch", "background"). Empty in pre-tenant digests.
	Priority string `json:"priority,omitempty"`
	InBytes  int    `json:"in_bytes"`
	OutBytes int    `json:"out_bytes"`
	// QueueUS is receive-FIFO residency (paste accept to dequeue) in
	// microseconds, for the winning attempt.
	QueueUS float64 `json:"queue_us"`
	// TotalUS is the request's total wall-clock latency in microseconds,
	// measured at the root API (all attempts plus fallback).
	TotalUS float64 `json:"total_us"`
	// EngineCycles is the modelled device-cycle cost including faulted
	// and failed attempts.
	EngineCycles int64 `json:"engine_cycles"`
	// Attempts counts dispatch attempts: 1 on first-try success, +1 per
	// failover re-dispatch (the software fallback does not count).
	Attempts int     `json:"attempts"`
	Outcome  Outcome `json:"outcome"`
}
