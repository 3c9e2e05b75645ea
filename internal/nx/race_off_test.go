//go:build !race

package nx

// raceEnabled gates the testing.AllocsPerRun assertion: the race
// detector instruments allocations (and inflates their count), so the
// zero-alloc gate only holds in a non-instrumented build.
const raceEnabled = false
