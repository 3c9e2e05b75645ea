// Package freelist is a bounded list of reusable objects that the garbage
// collector does not empty, each filed under the key of whoever returned
// it last.
//
// sync.Pool drops what it holds over two collections and rebuilds its
// per-P bookkeeping after each one, so how much a caller of a pooled path
// allocates follows how often the collector runs — a property of the
// whole process's heap, not of the path. A List holds up to Limit objects
// until they are taken again: a path that gets and puts in balance
// allocates its objects once. The price is that an idle process keeps
// them, so a List is for objects that are few and whose reuse is the
// point (a request block, a decoder's tables, a compressor's work area).
//
// A taker that names a key gets back the newest object returned under that
// key, the one most likely still in its core's cache; one whose key has
// nothing filed gets the newest object of all. Get and Put are the key-0
// case, so a list only ever used through them is last-in-first-out.
package freelist

import "sync"

// Limit is how many returned objects a List keeps: that many in use at
// once all come from the list and go back to it, and the ones past it
// are ordinary garbage.
const Limit = 16

// List hands out *T values, newest first among those filed under the
// taker's key, else newest first. The zero value is not usable; build one
// with New.
type List[T any] struct {
	mu   sync.Mutex
	free []entry[T] // oldest first
	make func() *T
}

type entry[T any] struct {
	x   *T
	key uint64
}

// New returns a List that calls mk when it has no object to hand out.
func New[T any](mk func() *T) *List[T] {
	return &List[T]{free: make([]entry[T], 0, Limit), make: mk}
}

// Get is GetFor(0).
func (l *List[T]) Get() *T { return l.GetFor(0) }

// Put is PutFor(0, x).
func (l *List[T]) Put(x *T) { l.PutFor(0, x) }

// GetFor returns the object most recently Put under key; failing that the
// object most recently Put under any key; failing that a new one. The
// objects it leaves keep their order.
func (l *List[T]) GetFor(key uint64) *T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return l.make()
	}
	i := n - 1
	for j := i; j >= 0; j-- {
		if l.free[j].key == key {
			i = j
			break
		}
	}
	x := l.free[i].x
	copy(l.free[i:], l.free[i+1:])
	l.free[n-1] = entry[T]{}
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return x
}

// PutFor returns x for reuse, filed under key; past Limit it is left to
// the collector.
func (l *List[T]) PutFor(key uint64, x *T) {
	l.mu.Lock()
	if len(l.free) < cap(l.free) {
		l.free = append(l.free, entry[T]{x: x, key: key})
	}
	l.mu.Unlock()
}
