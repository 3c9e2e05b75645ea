package nx

// Batched small-request submission.
//
// The per-request cost of the queued path — a paste, a send-window
// credit, a FIFO slot, and a drain round — is fixed, so it dominates once
// payloads shrink to a few KiB (the paper's latency-vs-size curves show
// exactly this wall). Software batches: one switchboard envelope carries
// a whole slice of requests, paying the submission overhead once, and the
// dequeuer runs the entries back to back across the device's engines the
// way a driver services a ring of descriptors.

// BatchEntry is one request of a batch: the caller embeds the request
// and completion blocks by value so a batch is a single contiguous
// allocation (or a pooled slice) rather than N boxed requests.
type BatchEntry struct {
	CRB CRB
	CSB CSB
	Rep Report
	// Err reports per-entry submission-protocol failures (a tripped
	// Deadline/Cancel gate, a fault resubmit that exhausted its budget, a
	// failed touch). Data-plane completions are CSB.CC, exactly as for
	// single submission. An entry that arrives with Err set is skipped.
	Err error
}

// SubmitBatch pastes the whole batch as one switchboard envelope — one
// paste, one credit, one FIFO round for len(entries) requests — and
// waits for the dequeuer to run every entry. It is the same protocol as
// SubmitInto over an envelope of N slots. Entries that complete with
// CCTranslationFault are touched and resubmitted individually through
// the full single-request protocol; their Err fields carry any terminal
// submission failure. Per-entry Deadline/Cancel gates are honored while
// the envelope is still the submitter's: entries whose gate has tripped
// before the paste (or while the envelope waits out paste backoff)
// complete with ErrDeadlineExceeded/ErrCanceled and never reach an
// engine; once the envelope is pasted the batch runs as one unit, and
// only the fault-straggler resubmission path re-checks. The returned
// error is an envelope-level failure — device offline or busy, window
// closed, or an injected engine hang, which drops the whole batch
// (ErrEngineHang), mirroring a wedged descriptor ring.
func (c *Context) SubmitBatch(entries []BatchEntry) error {
	if len(entries) == 0 {
		return nil
	}
	p := c.getPending()
	defer c.putPending(p)
	for i := range entries {
		en := &entries[i]
		p.slots = append(p.slots, slot{crb: &en.CRB, csb: &en.CSB, rep: &en.Rep, err: en.Err})
	}
	err := c.submit(p)
	for i := range entries {
		entries[i].Err = p.slots[i].err
	}
	return err
}
