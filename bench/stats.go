package main

import (
	"math"

	"nxzip/internal/stats"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear
// interpolation between closest ranks.
func quantile(xs []float64, q float64) float64 {
	var s stats.Samples
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(100 * q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// noise is the min–max spread of xs as a share of its median — the
// figure every host-clock metric carries so a reader can tell a change
// from the repetitions disagreeing with each other.
func noise(xs []float64) float64 {
	var s stats.Summary
	for _, x := range xs {
		s.Add(x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (s.Max() - s.Min()) / math.Abs(m)
}

// geomean is the geometric mean of xs: a workload's op classes differ by
// an order of magnitude in MB/s, and the geometric mean lets a 10 % gain
// on the slowest class count as much as a 10 % gain on the fastest.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
