package main

import "repro/internal/stats"

// tailPercentiles are the tail percentiles the harness may report, in
// ascending order.
var tailPercentiles = []float64{90, 95, 99}

// pickPercentile returns the highest tail percentile that still has at
// least ten samples beyond it in a sample of n — p99 needs 1000 samples,
// p95 200, p90 100. ok is false when not even p90 is supported; the
// caller then reports the median alone.
func pickPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if float64(n)*(100-c)/100 >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

// coefVar is the coefficient of variation (stddev / mean) of xs, 0 for
// fewer than two samples or a zero mean.
func coefVar(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := stats.Mean(xs)
	if m == 0 {
		return 0
	}
	return stats.StdDev(xs) / m
}

// spread is p90/p10 of xs: how far apart the cheap and the expensive end
// of a parameter sample are. 0 when xs is empty or its p10 is 0.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo := stats.Percentile(xs, 10)
	if lo <= 0 {
		return 0
	}
	return stats.Percentile(xs, 90) / lo
}

// median is stats.Median with 0 (not NaN) for an empty sample, so an
// absent layer prints and serializes as 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// maxOf is stats.Max with 0 for an empty sample.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Max(xs)
}
