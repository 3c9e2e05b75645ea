//go:build !race

package deflate

// raceEnabled gates the testing.AllocsPerRun assertions: the race
// detector instruments allocations and sync.Pool drops items at random
// under it, so the zero-alloc gates only hold in a non-instrumented build.
const raceEnabled = false
