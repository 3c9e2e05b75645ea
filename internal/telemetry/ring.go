package telemetry

// Ring keeps the last Len values put into it: the one "keep the last N"
// buffer behind the digest ring, a histogram's sample reservoir, the
// event bus's tail, the sampler's windows and the flight recorder's
// retained requests and latency windows. It takes no lock; each owner
// guards its ring with the lock it already holds. All storage is made
// by NewRing, so Put and Next never allocate.
type Ring[T any] struct {
	buf   []T
	next  int    // where the next value goes; the newest is just before it
	total uint64 // values ever put
}

// NewRing returns a ring that keeps the last size values (at least 1).
// It is a value so owners embed it without another allocation.
func NewRing[T any](size int) Ring[T] {
	return Ring[T]{buf: make([]T, max(size, 1))}
}

// Next advances the ring and returns the slot of the newest value. Until
// the ring has wrapped the slot is zero; after, it still holds the value
// it is about to replace, so an owner can reclaim what that value holds.
func (r *Ring[T]) Next() *T {
	slot := &r.buf[r.next]
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
	r.total++
	return slot
}

// Put stores v as the newest value, evicting the oldest once full.
func (r *Ring[T]) Put(v T) { *r.Next() = v }

// Total returns how many values were ever put.
func (r *Ring[T]) Total() uint64 { return r.total }

// Len returns how many values the ring keeps when full.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Held returns how many values the ring keeps now.
func (r *Ring[T]) Held() int { return int(min(r.total, uint64(len(r.buf)))) }

// Last returns a copy of the newest n values, oldest first; n <= 0 or
// more than Held means all of them. The result is never nil.
func (r *Ring[T]) Last(n int) []T { return r.AppendLast(make([]T, 0, r.count(n)), n) }

// AppendLast is Last appending to dst, for owners that read the ring on
// a path that must not allocate.
func (r *Ring[T]) AppendLast(dst []T, n int) []T {
	n = r.count(n)
	start := r.next - n
	if start < 0 { // the values wrap: the older ones end the buffer
		dst = append(dst, r.buf[len(r.buf)+start:]...)
		start, n = 0, r.next
	}
	return append(dst, r.buf[start:start+n]...)
}

// count is how many values Last(n) returns.
func (r *Ring[T]) count(n int) int {
	if held := r.Held(); n <= 0 || n > held {
		return held
	}
	return n
}
