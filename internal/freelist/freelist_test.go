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

// TestGetForPrefersItsKey: a taker gets back the newest object filed under
// its key, wherever it lies; one whose key has nothing filed gets the
// newest of all; the objects left keep their order; Get and Put are key 0.
func TestGetForPrefersItsKey(t *testing.T) {
	made := 0
	l := New(func() *block { made++; return new(block) })
	a1, b, a2, c := new(block), new(block), new(block), new(block)
	l.PutFor(1, a1)
	l.PutFor(2, b)
	l.PutFor(1, a2)
	l.PutFor(3, c)
	if got := l.GetFor(1); got != a2 {
		t.Fatal("GetFor(1) did not return the newest object filed under 1")
	}
	if got := l.GetFor(2); got != b {
		t.Fatal("GetFor(2) did not return the object under it, below the top")
	}
	if got := l.GetFor(9); got != c {
		t.Fatal("GetFor of a key with nothing filed did not return the newest object")
	}
	if got := l.GetFor(1); got != a1 {
		t.Fatal("GetFor(1) did not return the older object under 1")
	}
	if l.GetFor(1); made != 1 {
		t.Fatalf("an emptied list made %d objects, want 1", made)
	}

	// The rest keep their order: take from the middle, then drain by a key
	// nobody used, which reads the list newest first.
	xs := []*block{new(block), new(block), new(block), new(block), new(block)}
	for i, x := range xs {
		l.PutFor(uint64(10+i), x)
	}
	if got := l.GetFor(12); got != xs[2] {
		t.Fatal("GetFor(12) did not return the object filed under it")
	}
	for _, want := range []*block{xs[4], xs[3], xs[1], xs[0]} {
		if got := l.GetFor(99); got != want {
			t.Fatal("taking from the middle reordered the rest")
		}
	}

	// Key 0: Put files under it, Get prefers it.
	z, k := new(block), new(block)
	l.Put(z)
	l.PutFor(5, k)
	if got := l.Get(); got != z {
		t.Fatal("Get did not prefer the object Put under key 0")
	}
	if got := l.Get(); got != k {
		t.Fatal("Get with nothing under key 0 did not return the newest object")
	}
}

// TestPutForKeepsAtMostLimit: keyed Puts past Limit are dropped too, and
// what the list kept is the first Limit.
func TestPutForKeepsAtMostLimit(t *testing.T) {
	made := 0
	l := New(func() *block { made++; return new(block) })
	xs := make([]*block, Limit+3)
	for i := range xs {
		xs[i] = new(block)
		l.PutFor(uint64(i%3), xs[i])
	}
	if got := l.GetFor(uint64(Limit + 2)); got != xs[Limit-1] {
		t.Error("the newest object kept is not the Limit-th Put")
	}
	for i := 0; i < Limit+2; i++ {
		l.GetFor(uint64(i % 3))
	}
	if made != 3 {
		t.Errorf("%d keyed Gets after as many keyed Puts made %d objects, want 3", Limit+3, made)
	}
}

// TestKeyedBalancedUseAllocatesNothing: each of Limit goroutines gets and
// puts under a key of its own, in balance; the list makes an object per
// goroutine at most and never touches the allocator after, across
// collections too.
func TestKeyedBalancedUseAllocatesNothing(t *testing.T) {
	l := New(func() *block { return new(block) })
	l.PutFor(7, l.GetFor(7))
	l.PutFor(8, l.GetFor(8))
	collect := func() { runtime.GC() }
	base := testing.AllocsPerRun(20, collect)
	if n := testing.AllocsPerRun(20, func() {
		x, y := l.GetFor(7), l.GetFor(8)
		collect()
		l.PutFor(8, y)
		l.PutFor(7, x)
	}); n > base {
		t.Errorf("two keyed Gets, a collection, two keyed Puts: %v allocations a round, the collection alone %v", n, base)
	}

	var mu sync.Mutex
	made := 0
	c := New(func() *block { mu.Lock(); made++; mu.Unlock(); return new(block) })
	var wg sync.WaitGroup
	for g := 0; g < Limit; g++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := c.GetFor(key)
				x.buf[0]++
				c.PutFor(key, x)
			}
		}(uint64(g))
	}
	wg.Wait()
	if made > Limit {
		t.Errorf("%d keyed goroutines in balance made %d objects", Limit, made)
	}
}
