package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormalCDF(t *testing.T) {
	if c := NormalCDF(0, 0, 1); !almost(c, 0.5, 1e-12) {
		t.Fatalf("Phi(0) = %v", c)
	}
	if c := NormalCDF(1.959964, 0, 1); !almost(c, 0.975, 1e-4) {
		t.Fatalf("Phi(1.96) = %v", c)
	}
	if NormalCDF(-1, 0, 0) != 0 || NormalCDF(1, 0, 0) != 1 {
		t.Fatal("degenerate sigma should step at mu")
	}
}

func TestKSNormalAcceptsNormalData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 10 + 2*rng.NormFloat64()
	}
	res := KSNormal(xs)
	if res.D > 0.08 {
		t.Fatalf("KS D on normal data = %v, want small", res.D)
	}
	if res.PValue < 0.01 {
		t.Fatalf("p-value on normal data = %v, want not tiny", res.PValue)
	}
}

func TestKSNormalRejectsBimodalData(t *testing.T) {
	// Mimic E1: clustered runtimes — a fast mode and a slow mode far apart.
	rng := rand.New(rand.NewSource(4))
	var xs []float64
	for i := 0; i < 450; i++ {
		xs = append(xs, 0.3+0.05*rng.Float64())
	}
	for i := 0; i < 50; i++ {
		xs = append(xs, 100+20*rng.Float64())
	}
	res := KSNormal(xs)
	if res.D < 0.3 {
		t.Fatalf("KS D on bimodal data = %v, want large", res.D)
	}
	if res.PValue > 1e-6 {
		t.Fatalf("p-value on bimodal data = %v, want ≈ 0", res.PValue)
	}
}

func TestKSEmpty(t *testing.T) {
	if r := KSNormal(nil); !math.IsNaN(r.D) {
		t.Fatal("empty sample should be NaN")
	}
	if r := KSTwoSample(nil, []float64{1}); !math.IsNaN(r.D) {
		t.Fatal("empty two-sample should be NaN")
	}
}

func TestKSTwoSampleSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 400)
	ys := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
		ys[i] = rng.ExpFloat64()
	}
	res := KSTwoSample(xs, ys)
	if res.D > 0.1 {
		t.Fatalf("two-sample D = %v for same distribution", res.D)
	}
	if res.PValue < 0.01 {
		t.Fatalf("p = %v, want large", res.PValue)
	}
}

func TestKSTwoSampleDifferentDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 400)
	ys := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
		ys[i] = 5 + rng.NormFloat64()
	}
	res := KSTwoSample(xs, ys)
	if res.D < 0.5 {
		t.Fatalf("two-sample D = %v for different distributions", res.D)
	}
	if res.PValue > 1e-6 {
		t.Fatalf("p = %v, want ≈ 0", res.PValue)
	}
}

func TestKSStatisticExactSmall(t *testing.T) {
	// Single point at the reference median: D = 0.5 exactly.
	res := KSAgainstCDF([]float64{0}, func(x float64) float64 { return NormalCDF(x, 0, 1) })
	if !almost(res.D, 0.5, 1e-12) {
		t.Fatalf("D = %v, want 0.5", res.D)
	}
}

func TestHistogram(t *testing.T) {
	h := NewLogHistogram(1, 1000, 3) // buckets: <1, [1,10), [10,100), [100,1000), >=1000
	h.AddAll([]float64{0.5, 2, 3, 50, 5000})
	if h.Total() != 5 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[2] != 1 || h.Counts[4] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Render(20) == "" {
		t.Fatal("Render empty")
	}
	lin := &Histogram{Bounds: []float64{0, 5, 10}, Counts: make([]int, 4)}
	lin.Add(5) // a value on a bound falls into the bucket above it
	if lin.Counts[2] != 1 {
		t.Fatalf("linear counts = %v", lin.Counts)
	}
	if (&Histogram{Bounds: []float64{1}, Counts: make([]int, 2)}).Render(10) == "" {
		t.Fatal("empty histogram render should say so")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewLogHistogram(0, 10, 3) },
		func() { NewLogHistogram(10, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
