package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSpearmanPerfectMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 4, 9, 16, 25} // nonlinear but monotone
	if r := Spearman(xs, ys); !almost(r, 1, 1e-12) {
		t.Fatalf("monotone Spearman = %v, want 1", r)
	}
	if r := Pearson(xs, ys); r >= 1-1e-9 {
		t.Fatal("Pearson should be < 1 on nonlinear data (sanity)")
	}
	desc := []float64{10, 8, 6, 4, 2}
	if r := Spearman(xs, desc); !almost(r, -1, 1e-12) {
		t.Fatalf("descending Spearman = %v, want -1", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{10, 20, 20, 30}
	if r := Spearman(xs, ys); !almost(r, 1, 1e-12) {
		t.Fatalf("tied Spearman = %v, want 1", r)
	}
	if !math.IsNaN(Spearman(xs, ys[:2])) {
		t.Fatal("length mismatch should be NaN")
	}
}

func TestRanksAverageTies(t *testing.T) {
	got := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

func TestRankCorrelationNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 300
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		ys[i] = math.Log(xs[i]+1) + rng.NormFloat64()*0.1 // monotone + noise
	}
	if r := Spearman(xs, ys); r < 0.95 {
		t.Fatalf("noisy monotone Spearman = %v, want > 0.95", r)
	}
}
