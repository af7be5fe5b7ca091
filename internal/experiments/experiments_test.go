package experiments

import (
	"strings"
	"sync"
	"testing"
)

// A shared small environment: dataset generation dominates test time, so
// build it once.
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func sharedEnv(t testing.TB) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = NewEnv(SmallScale())
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestE1Shapes(t *testing.T) {
	res, err := E1(sharedEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// E1a: variance must dwarf the squared mean (paper: 674e6 ms² variance
	// on second-scale means).
	if res.Q4VarOverMeanSq < 1 {
		t.Errorf("Q4 var/mean² = %v, want > 1 (high variance)", res.Q4VarOverMeanSq)
	}
	// E1b: KS distance far from normal (paper: 0.89).
	if res.Q2KS.D < 0.2 {
		t.Errorf("Q2 KS distance = %v, want clearly non-normal (> 0.2)", res.Q2KS.D)
	}
	if res.Q2KS.PValue > 0.01 {
		t.Errorf("Q2 KS p-value = %v, want < 0.01", res.Q2KS.PValue)
	}
	if res.Table == nil || !strings.Contains(res.Table.String(), "E1") {
		t.Error("table missing")
	}
}

func TestE2Shapes(t *testing.T) {
	res, err := E2(sharedEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SNBQ2.Groups) != SmallScale().Groups {
		t.Fatalf("groups = %d", len(res.SNBQ2.Groups))
	}
	// E2: group aggregates must disagree noticeably under uniform sampling
	// (paper: up to 40% on the average). At small scale we require > 3%.
	if res.SNBQ2.AvgDeviation < 0.03 {
		t.Errorf("SNB Q2 avg deviation = %v, want noticeable instability", res.SNBQ2.AvgDeviation)
	}
	if res.Table == nil || res.DevTable == nil {
		t.Fatal("tables missing")
	}
	if !strings.Contains(res.Table.String(), "Group 1") {
		t.Error("E2 table malformed")
	}
}

func TestE3Shapes(t *testing.T) {
	res, err := E3(sharedEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: mean over 10× the median. Our hierarchy gives a strong ratio;
	// require > 2 at small scale.
	if res.MeanMedianRatio < 2 {
		t.Errorf("mean/median = %v, want ≫ 1", res.MeanMedianRatio)
	}
	// Bimodality: a large multiplicative gap between consecutive runtimes.
	if res.GapRatio < 2 {
		t.Errorf("largest gap ratio = %v, want bimodal gap", res.GapRatio)
	}
	// "no actual query with the runtime close to the mean"
	if res.FracNearMean > 0.3 {
		t.Errorf("%.0f%% of runs near the mean, want few", res.FracNearMean*100)
	}
	if res.Work.Max <= res.Work.Min {
		t.Error("degenerate distribution")
	}
	if res.Histogram == "" {
		t.Error("histogram missing")
	}
}

func TestE4Shapes(t *testing.T) {
	res, err := E4(sharedEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// E4: at least two distinct optimal plans across country pairs.
	if res.DistinctPlans < 2 {
		t.Fatalf("distinct plans = %d, want >= 2\n%s", res.DistinctPlans, res.Table)
	}
	// The popular pair must have far more co-visitors than the rare pair.
	if res.PopularCovisit <= res.RareCovisit {
		t.Errorf("popular covisit %d <= rare %d", res.PopularCovisit, res.RareCovisit)
	}
	if res.PopularSig == "" || res.RareSig == "" {
		t.Error("example signatures missing")
	}
}

func TestX5Shapes(t *testing.T) {
	res, err := X5(sharedEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~0.85 Pearson between Cout and runtime. Our deterministic
	// work correlation should be at least that strong.
	if res.PearsonWork < 0.8 {
		t.Errorf("Pearson(Cout, work) = %v, want >= 0.8", res.PearsonWork)
	}
	if res.N < 30 {
		t.Errorf("sample too small: %d", res.N)
	}
	// Wall-clock correlation is noisy in CI but should remain positive and
	// substantial.
	if res.PearsonRuntime < 0.3 {
		t.Errorf("Pearson(Cout, runtime) = %v, want > 0.3", res.PearsonRuntime)
	}
	// Rank correlation isolates monotonicity; it should be very strong
	// against deterministic work.
	if res.SpearmanWork < 0.9 {
		t.Errorf("Spearman(Cout, work) = %v, want > 0.9", res.SpearmanWork)
	}
}

func TestX6CurationPayoff(t *testing.T) {
	res, err := X6(sharedEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) < 2 {
		t.Fatalf("classes = %d, want >= 2 (Q4a/Q4b)\n%s", len(res.Classes), res.Table)
	}
	// P3: one plan per class.
	for _, c := range res.Classes {
		if c.DistinctPlans != 1 {
			t.Errorf("class %s executes %d plans, want 1 (P3)", c.Name, c.DistinctPlans)
		}
	}
	// P1: within-class relative variance collapses versus uniform.
	ratio := res.MeanClassVarRatio()
	if ratio >= 0.5 {
		t.Errorf("class var/mean² ratio vs uniform = %v, want < 0.5\n%s", ratio, res.Table)
	}
	// P2: per-class group deviation below the uniform baseline.
	worst := 0.0
	for _, c := range res.Classes {
		if c.AvgDeviation > worst {
			worst = c.AvgDeviation
		}
	}
	if worst >= res.UniformAvgDeviation && res.UniformAvgDeviation > 0.02 {
		t.Errorf("worst class deviation %v >= uniform %v (P2 not improved)", worst, res.UniformAvgDeviation)
	}
}

func TestScales(t *testing.T) {
	small := SmallScale()
	paper := PaperScale()
	if small.GroupSize >= paper.GroupSize {
		t.Error("small scale should be smaller")
	}
	if paper.Groups != 4 || paper.GroupSize != 100 {
		t.Error("paper scale must use 4 groups of 100 (E2)")
	}
	if err := small.BSBM.Validate(); err != nil {
		t.Error(err)
	}
	if err := paper.SNB.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPartialEnvs(t *testing.T) {
	sc := SmallScale()
	b, err := NewBSBMEnv(sc)
	if err != nil {
		t.Fatal(err)
	}
	if b.BSBM == nil || b.SNB != nil {
		t.Error("BSBM-only env wrong")
	}
	s, err := NewSNBEnv(sc)
	if err != nil {
		t.Fatal(err)
	}
	if s.SNB == nil || s.BSBM != nil {
		t.Error("SNB-only env wrong")
	}
}

func TestX7ScaleShapePersists(t *testing.T) {
	res, err := X7(sharedEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 scales", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row.MeanMedianRatio < 1.2 {
			t.Errorf("scale %d: mean/median = %v, shape lost", i, row.MeanMedianRatio)
		}
		if i > 0 && res.Rows[i].Triples <= res.Rows[i-1].Triples {
			t.Errorf("scales not increasing: %d then %d", res.Rows[i-1].Triples, res.Rows[i].Triples)
		}
	}
	if res.Table == nil {
		t.Fatal("table missing")
	}
}
