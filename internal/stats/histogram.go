package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bucket histogram over the given boundaries.
// NewLogHistogram builds logarithmic ones, the natural choice for query
// runtimes, which span several orders of magnitude in the paper's E3.
type Histogram struct {
	Bounds []float64 // len(Bounds)+1 buckets; bucket i covers [Bounds[i-1], Bounds[i])
	Counts []int     // len(Bounds)+1 counts; first bucket is (-inf, Bounds[0])
	total  int
	sum    float64
}

// NewLogHistogram builds a histogram with buckets at lo, lo·r, lo·r², …
// covering [lo, hi] with `buckets` geometric steps.
func NewLogHistogram(lo, hi float64, buckets int) *Histogram {
	if lo <= 0 || hi <= lo || buckets < 1 {
		panic("stats: invalid log histogram bounds")
	}
	r := math.Pow(hi/lo, 1/float64(buckets))
	bounds := make([]float64, buckets+1)
	b := lo
	for i := range bounds {
		bounds[i] = b
		b *= r
	}
	return &Histogram{Bounds: bounds, Counts: make([]int, len(bounds)+1)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := 0
	for i < len(h.Bounds) && x >= h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	h.total++
	h.sum += x
}

// AddAll records all observations.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// Sum returns the sum of all recorded observations — with Total it yields
// the mean, and it backs the `_sum` series of a Prometheus-style
// cumulative-histogram exposition.
func (h *Histogram) Sum() float64 { return h.sum }

// Render draws an ASCII bar chart, one line per non-empty bucket, bars
// scaled to width w.
func (h *Histogram) Render(w int) string {
	if w < 1 {
		w = 40
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC == 0 {
		return "(empty histogram)\n"
	}
	var b strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		var label string
		switch i {
		case 0:
			label = fmt.Sprintf("      < %8.3g", h.Bounds[0])
		case len(h.Bounds):
			label = fmt.Sprintf("     >= %8.3g", h.Bounds[len(h.Bounds)-1])
		default:
			label = fmt.Sprintf("%8.3g-%8.3g", h.Bounds[i-1], h.Bounds[i])
		}
		bar := strings.Repeat("#", int(math.Ceil(float64(c)/float64(maxC)*float64(w))))
		fmt.Fprintf(&b, "%s |%-*s %d\n", label, w, bar, c)
	}
	return b.String()
}
