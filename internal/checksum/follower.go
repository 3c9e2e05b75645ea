package checksum

import (
	"runtime"
	"sync"
)

// Follower computes the CRC-32 and the Adler-32 of a message that is
// still being written, the way the accelerator's checksum units take each
// data beat as it leaves the decoder. The writer publishes how far its
// output is final; from the first publish on, when start allows, a
// goroutine sums what was published, 8 KiB at a time, and exits once it
// has caught up, to be started again by the next publish. Finish sums
// inline whatever no goroutine took, so a follower whose goroutine never
// started is one SumBoth pass.
//
// Publish, Finish and Release belong to the writer's goroutine. A message
// is published as p[:n] of growing n; the bytes of a published range must
// not change, though later publishes may name another backing with the
// same bytes in it.
type Follower struct {
	start func() bool // asked at the first publish: may a goroutine sum?
	run   func()      // f.follow, stored so that a go statement on it allocates nothing
	state uint8

	mu     sync.Mutex
	p      []byte // the published output: every byte final
	closed bool   // Finish or Release wants the goroutine gone
	busy   bool   // a goroutine is summing; it clears this as it exits

	// Bytes summed so far and the two sums over them: the goroutine's
	// while busy is set, the writer's otherwise.
	took int
	crc  CRC32
	ad   Adler32
}

// The writer's view of a message.
const (
	unasked   uint8 = iota // nothing published yet
	inline                 // start said no: Finish sums everything
	following              // goroutines sum what is published
)

// NewFollower returns a follower that asks start, at the first publish of
// each message, whether goroutines may sum alongside the writer.
func NewFollower(start func() bool) *Follower {
	f := &Follower{start: start}
	f.run = f.follow
	return f
}

// Publish declares p — a prefix of the message — final.
func (f *Follower) Publish(p []byte) {
	switch f.state {
	case unasked:
		if !f.start() {
			f.state = inline
			return
		}
		f.state = following
	case inline:
		return
	}
	f.mu.Lock()
	f.p = p
	idle := !f.busy
	f.busy = true
	f.mu.Unlock()
	if idle {
		go f.run()
	}
}

// follow sums published bytes a sub-stripe at a time until it has caught
// up or is closed. It exits rather than park: a parked goroutine holds a
// sudog, which the runtime's caches drop at every collection, so parking
// would allocate; a goroutine's descriptor is reused across collections.
func (f *Follower) follow() {
	for {
		f.mu.Lock()
		p := f.p
		if f.closed || f.took == len(p) {
			f.busy = false
			f.mu.Unlock()
			return
		}
		f.mu.Unlock()
		q := p[f.took:min(len(p), f.took+bothStripe)]
		f.crc.Update(q)
		f.ad.Update(q)
		f.took += len(q)
	}
}

// stop closes the follower and waits for a goroutine still summing: it is
// at most a sub-stripe from exiting, so the writer yields its P rather than
// park.
func (f *Follower) stop() {
	if f.state != following {
		return
	}
	f.mu.Lock()
	f.closed = true
	for f.busy {
		f.mu.Unlock()
		runtime.Gosched()
		f.mu.Lock()
	}
	f.mu.Unlock()
}

// Finish returns the CRC-32 and the Adler-32 of the whole message p, which
// extends every range published: it stops the goroutine and sums inline
// what no goroutine took. Called again with the same p it returns the same.
func (f *Follower) Finish(p []byte) (crc, adler uint32) {
	f.stop()
	both(&f.crc, &f.ad, p[f.took:])
	f.took = len(p)
	return f.crc.Sum(), f.ad.Sum()
}

// Release readies f for the next message: it stops the goroutine, if one
// still runs (a decode that failed never calls Finish), and reports
// whether goroutines followed this one.
func (f *Follower) Release() (followed bool) {
	f.stop()
	followed = f.state == following
	f.state, f.p, f.closed, f.took = unasked, nil, false, 0
	f.crc.Reset()
	f.ad = Adler32{}
	return followed
}
