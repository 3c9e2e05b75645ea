// Package freelist is a bounded last-in-first-out list of reusable
// objects that the garbage collector does not empty.
//
// sync.Pool drops what it holds over two collections and rebuilds its
// per-P bookkeeping after each one, so how much a caller of a pooled path
// allocates follows how often the collector runs — a property of the
// whole process's heap, not of the path. A List holds up to Limit objects
// until they are taken again: a path that gets and puts in balance
// allocates its objects once. The price is that an idle process keeps
// them, so a List is for objects that are few and whose reuse is the
// point (a request block, a decoder's tables).
package freelist

import "sync"

// Limit is how many returned objects a List keeps: that many in use at
// once all come from the list and go back to it, and the ones past it
// are ordinary garbage.
const Limit = 16

// List hands out *T values, newest returned first. The zero value is not
// usable; build one with New.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
	make func() *T
}

// New returns a List that calls mk when it has no object to hand out.
func New[T any](mk func() *T) *List[T] {
	return &List[T]{free: make([]*T, 0, Limit), make: mk}
}

// Get returns the object most recently Put, or a new one.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return l.make()
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return x
}

// Put returns x for reuse; past Limit it is left to the collector.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	if len(l.free) < cap(l.free) {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}
