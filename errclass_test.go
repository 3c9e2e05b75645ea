package nxzip

// errclass_test.go audits the error-classification surface the failover
// and health layers dispatch on. Three predicates partition every error
// the stack can produce, and a misclassification is silent — a
// non-retryable error that tests retryable burns re-dispatch budget on
// doomed attempts; a retryable one that tests terminal surfaces device
// flakes to callers. The table pins the intended class of each sentinel,
// including the PR 8 codec-dispatch surface (ErrNoCapableDevice,
// transcode failures) and the admission errors, in both bare and
// wrapped forms.

import (
	"fmt"
	"testing"

	"nxzip/internal/admission"
	"nxzip/internal/nx"
	"nxzip/internal/topology"
)

func TestErrorClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		// retryable: nx.Retryable — worth re-dispatching to another device.
		retryable bool
		// eligible: failoverEligible — absorbed by re-dispatch/fallback
		// rather than surfaced (retryable plus the data-plane completions
		// the software path re-checks authoritatively).
		eligible bool
	}{
		// Transient device-local failures: re-dispatch and absorb.
		{"crc-mismatch", nx.ErrCRCMismatch, true, true},
		{"engine-hang", nx.ErrEngineHang, true, true},
		{"device-offline", nx.ErrDeviceOffline, true, true},
		{"device-busy", nx.ErrDeviceBusy, true, true},
		{"fault-storm", nx.ErrFaultStorm, true, true},

		// Data-plane completions: not worth re-dispatching as-is (the
		// same input fails the same way), but the fallback re-checks them
		// in software, whose verdict is authoritative.
		{"data-corrupt", nx.ErrDataCorrupt, false, true},
		{"invalid-crb", nx.ErrInvalidCRB, false, true},
		// Target space is the caller's buffer sizing, not a device fault.
		{"target-space", nx.ErrTargetSpace, false, false},

		// The caller's liveness budget: surfaces directly, never absorbed.
		{"deadline", nx.ErrDeadlineExceeded, false, false},
		{"canceled", nx.ErrCanceled, false, false},

		// PR 8 codec-dispatch surface: a pool with no capable hardware is
		// a topology property, not a device flake — re-dispatch cannot
		// help, and the pick layer (not the retry loop) handles routing
		// straight to software.
		{"no-capable-device", topology.ErrNoCapableDevice, false, false},
		{"no-healthy-device", topology.ErrNoHealthyDevice, false, false},

		// Admission errors: overload is a deliberate refusal with a
		// retry-after hint — retrying immediately defeats the gate.
		{"overloaded", admission.ErrOverloaded, false, false},
		{"overload-error", &admission.OverloadError{Class: admission.Background, Reason: "brownout"}, false, false},
		{"admission-canceled", admission.ErrCanceled, false, false},
		{"drain-timeout", topology.ErrDrainTimeout, false, false},
	}
	for _, tc := range cases {
		for _, wrap := range []bool{false, true} {
			err := tc.err
			name := tc.name
			if wrap {
				err = fmt.Errorf("nxzip: some operation: %w", err)
				name += "-wrapped"
			}
			if got := nx.Retryable(err); got != tc.retryable {
				t.Errorf("%s: Retryable = %v, want %v", name, got, tc.retryable)
			}
			if got := failoverEligible(err); got != tc.eligible {
				t.Errorf("%s: failoverEligible = %v, want %v", name, got, tc.eligible)
			}
		}
	}

	// ccFail output classifies by the wrapped completion code, detail or
	// not — the transcode path builds its errors this way.
	ccErr := ccFail("transcode", &nx.CSB{CC: nx.CCDataCorrupt, Detail: "bitstream desync"})
	if nx.Retryable(ccErr) || !failoverEligible(ccErr) {
		t.Errorf("ccFail(CCDataCorrupt): retryable=%v eligible=%v, want false/true",
			nx.Retryable(ccErr), failoverEligible(ccErr))
	}
}

// TestErrorClassificationHealth pins which errors feed the 3-strike
// quarantine scoreboard: device-local failures and deadline exhaustion
// indict the device; topology/admission/caller errors never do — a node
// must not quarantine hardware because the pool lacked a codec or the
// gate shed a request.
func TestErrorClassificationHealth(t *testing.T) {
	indicts := []error{
		nx.ErrCRCMismatch, nx.ErrEngineHang, nx.ErrDeviceBusy,
		nx.ErrFaultStorm, nx.ErrDeadlineExceeded,
	}
	acquits := []error{
		nil, nx.ErrDataCorrupt, nx.ErrInvalidCRB, nx.ErrTargetSpace,
		nx.ErrCanceled, topology.ErrNoCapableDevice, topology.ErrNoHealthyDevice,
		admission.ErrOverloaded,
		&admission.OverloadError{Class: admission.Batch, Reason: "quota"},
	}
	for _, err := range indicts {
		node, err2 := OpenNode(P9Node(1))
		if err2 != nil {
			t.Fatal(err2)
		}
		for i := 0; i < 3; i++ { // the scoreboard's failure threshold
			node.topo.ReportResultReq(0, err, 0)
		}
		if !node.Quarantined(0) {
			t.Errorf("%v: three strikes did not quarantine", err)
		}
	}
	node, err := OpenNode(P9Node(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, aerr := range acquits {
		for i := 0; i < 10; i++ {
			node.topo.ReportResultReq(0, aerr, 0)
		}
	}
	if node.Quarantined(0) {
		t.Error("non-device errors quarantined the device")
	}
}
