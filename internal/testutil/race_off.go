//go:build !race

// Package testutil holds what the tests of more than one package share.
package testutil

// RaceEnabled gates the testing.AllocsPerRun assertions: the race
// detector instruments allocations (and inflates their count), so the
// zero-alloc gates only hold in a non-instrumented build.
const RaceEnabled = false
