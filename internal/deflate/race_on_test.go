//go:build race

package deflate

// raceEnabled mirrors race_off_test.go under the race detector.
const raceEnabled = true
