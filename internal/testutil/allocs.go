package testutil

import (
	"runtime"
	"sync"
)

// SpareGoroutineDescriptors runs a burst of goroutines so that the
// runtime's free lists of goroutine descriptors have some to spare. A
// helper goroutine starts on its caller's P and may exit on another; the
// runtime (Go 1.24) files an exited goroutine's descriptor on its P's list,
// spilling to a global one, and a go statement allocates a descriptor when
// neither list of its P has one. Until they hold some to spare, a helper
// costs one allocation: a workaround tied to that runtime detail, not a
// property of the code under test.
func SpareGoroutineDescriptors() {
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 256; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); <-release }()
	}
	close(release)
	wg.Wait()
}

// WindowMallocs counts the process's allocations around windows of runs
// calls of op, and returns nil at the first window that made none, or else
// every window's count. A gate at more than one P cannot use
// testing.AllocsPerRun, which runs at one; anything else alive in the test
// binary that allocates during a window counts too, so the gate is the
// least of a few windows: an allocation op makes shows up in every one.
func WindowMallocs(op func(), windows, runs int) []uint64 {
	var counts []uint64
	for range windows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		n := after.Mallocs - before.Mallocs
		if n == 0 {
			return nil
		}
		counts = append(counts, n)
	}
	return counts
}
