package stats

import (
	"math"
	"sort"
)

// Spearman returns Spearman's rank correlation coefficient ρ of the paired
// samples — Pearson correlation of the rank transforms, with average ranks
// for ties. It complements Pearson in the Cout-vs-runtime experiment: rank
// correlation is insensitive to the (engine-specific) scale relationship
// between cost and time, so it isolates the monotonicity claim.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks returns the 1-based fractional ranks of xs (ties get the average of
// the ranks they span).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j).
		avg := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	return out
}
