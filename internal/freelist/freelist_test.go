package freelist

import (
	"runtime"
	"sync"
	"testing"
)

type block struct{ buf [64]byte }

// TestListSurvivesCollections is the reason the package exists: what was
// Put is what Get returns, newest first, with any number of collections
// in between (sync.Pool has dropped it after the second).
func TestListSurvivesCollections(t *testing.T) {
	made := 0
	l := New(func() *block { made++; return new(block) })
	a, b := l.Get(), l.Get()
	if made != 2 || a == b {
		t.Fatalf("two Gets of an empty list made %d objects (a == b: %v)", made, a == b)
	}
	l.Put(a)
	l.Put(b)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if got := l.Get(); got != b {
		t.Error("Get did not return the newest Put")
	}
	if got := l.Get(); got != a {
		t.Error("Get did not return the older Put after the newest")
	}
	if l.Get(); made != 3 {
		t.Errorf("an emptied list made %d objects in all, want 3", made)
	}
}

// TestListKeepsAtMostLimit: a Put past Limit is dropped, not queued.
func TestListKeepsAtMostLimit(t *testing.T) {
	made := 0
	l := New(func() *block { made++; return new(block) })
	for i := 0; i < Limit+3; i++ {
		l.Put(new(block))
	}
	for i := 0; i < Limit+3; i++ {
		l.Get()
	}
	if made != 3 {
		t.Errorf("%d Gets after as many Puts made %d objects, want 3", Limit+3, made)
	}
}

// TestListBalancedUseAllocatesNothing: Get and Put in balance, from as
// many goroutines as Limit, make each object once and never touch the
// allocator after — across collections too.
func TestListBalancedUseAllocatesNothing(t *testing.T) {
	l := New(func() *block { return new(block) })
	l.Put(l.Get())
	collect := func() { runtime.GC() }
	// What a collection allocates on its own is the runtime's.
	base := testing.AllocsPerRun(20, collect)
	if n := testing.AllocsPerRun(20, func() {
		x := l.Get()
		collect()
		l.Put(x)
	}); n > base {
		t.Errorf("Get, a collection, Put: %v allocations a round, the collection alone %v", n, base)
	}

	var mu sync.Mutex
	made := 0
	c := New(func() *block { mu.Lock(); made++; mu.Unlock(); return new(block) })
	var wg sync.WaitGroup
	for g := 0; g < Limit; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := c.Get()
				x.buf[0]++
				c.Put(x)
			}
		}()
	}
	wg.Wait()
	if made > Limit {
		t.Errorf("%d goroutines in balance made %d objects", Limit, made)
	}
}
