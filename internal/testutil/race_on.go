//go:build race

package testutil

// RaceEnabled mirrors race_off.go under the race detector.
const RaceEnabled = true
