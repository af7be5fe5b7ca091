package repro

// One benchmark per table/figure of the paper's evaluation (the examples
// E1–E4 and the Section III claims), plus micro-benchmarks of the engine
// and ablation benches for the design choices called out in DESIGN.md.
//
// The experiment benches report the paper's headline numbers as custom
// metrics (var/mean², KS distance, deviation fractions, plan counts,
// Pearson r) so `go test -bench=.` regenerates the entire evaluation.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/snb"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.NewEnv(experiments.SmallScale())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// --- Paper experiments -----------------------------------------------------

// BenchmarkE1VarianceQ4 regenerates E1a: BSBM-BI Q4 runtime variance under
// uniform sampling (paper: variance 674e6 ms², i.e. var/mean² ≫ 1).
func BenchmarkE1VarianceQ4(b *testing.B) {
	e := env(b)
	var last *experiments.E1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.E1(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Q4VarOverMeanSq, "var/mean2")
	b.ReportMetric(last.Q4RuntimeVarianceMs2, "runtime-var-ms2")
}

// BenchmarkE1NormalityQ2 regenerates E1b: BSBM-BI Q2's KS distance from a
// fitted normal distribution (paper: 0.89 with p ≈ 1e-21).
func BenchmarkE1NormalityQ2(b *testing.B) {
	e := env(b)
	var last *experiments.E1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.E1(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Q2KS.D, "KS-distance")
	b.ReportMetric(last.Q2KS.PValue, "KS-p")
}

// BenchmarkE2StabilityQ2 regenerates the E2 table: LDBC Q2 over independent
// uniform groups (paper: average deviates up to 40%, percentiles up to
// 100%).
func BenchmarkE2StabilityQ2(b *testing.B) {
	e := env(b)
	var last *experiments.E2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.E2(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.SNBQ2.AvgDeviation*100, "snb-avg-dev-%")
	b.ReportMetric(last.SNBQ2.MedianDeviation*100, "snb-med-dev-%")
	b.ReportMetric(last.BSBMQ2.AvgDeviation*100, "bsbm-avg-dev-%")
}

// BenchmarkE3DistributionQ4 regenerates the E3 table: BSBM-BI Q4's bimodal
// runtime distribution (paper: mean/median > 10, q95/median ≈ 50).
func BenchmarkE3DistributionQ4(b *testing.B) {
	e := env(b)
	var last *experiments.E3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.E3(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MeanMedianRatio, "mean/median")
	b.ReportMetric(last.GapRatio, "mode-gap-x")
	b.ReportMetric(last.FracNearMean*100, "near-mean-%")
}

// BenchmarkE4PlanVariability regenerates E4: the number of distinct optimal
// plans for LDBC Q3 across country pairs (paper: at least 2 — start from
// friends vs start from visitors).
func BenchmarkE4PlanVariability(b *testing.B) {
	e := env(b)
	var last *experiments.E4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.E4(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.DistinctPlans), "distinct-plans")
	b.ReportMetric(float64(last.PopularCovisit), "popular-covisit")
	b.ReportMetric(float64(last.RareCovisit), "rare-covisit")
}

// BenchmarkX5CoutCorrelation regenerates the Section III claim: Pearson
// correlation between Cout and runtime (paper: ~0.85).
func BenchmarkX5CoutCorrelation(b *testing.B) {
	e := env(b)
	var last *experiments.X5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.X5(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.PearsonWork, "pearson-work")
	b.ReportMetric(last.PearsonRuntime, "pearson-runtime")
}

// BenchmarkX6CuratedStability regenerates the payoff experiment: curated
// classes restore P1–P3 (within-class var/mean² collapses, one plan per
// class).
func BenchmarkX6CuratedStability(b *testing.B) {
	e := env(b)
	var last *experiments.X6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.X6(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.UniformVarOverMeanSq, "uniform-var/mean2")
	b.ReportMetric(last.MeanClassVarRatio(), "class-var-ratio")
	b.ReportMetric(float64(len(last.Classes)), "classes")
}

// --- Ablations --------------------------------------------------------------

// BenchmarkAblationGreedyVsDP compares the greedy join ordering against
// exact DP across the Q4 domain: how often greedy picks a suboptimal plan
// and how much cost it adds.
func BenchmarkAblationGreedyVsDP(b *testing.B) {
	e := env(b)
	q4 := bsbm.Q4()
	dom, err := core.ExtractDomain(q4, e.BSBM)
	if err != nil {
		b.Fatal(err)
	}
	var worstRatio, mismatches, total float64
	for i := 0; i < b.N; i++ {
		worstRatio, mismatches, total = 1, 0, 0
		dp, err := core.Analyze(q4, e.BSBM, dom, core.AnalyzeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		gr, err := core.Analyze(q4, e.BSBM, dom, core.AnalyzeOptions{UseGreedy: true})
		if err != nil {
			b.Fatal(err)
		}
		for j := range dp.Points {
			total++
			if gr.Points[j].Signature != dp.Points[j].Signature {
				mismatches++
			}
			if dp.Points[j].Cost > 0 {
				r := gr.Points[j].Cost / dp.Points[j].Cost
				if r > worstRatio {
					worstRatio = r
				}
			}
		}
	}
	b.ReportMetric(mismatches/total*100, "plan-mismatch-%")
	b.ReportMetric(worstRatio, "worst-cost-ratio")
}

// BenchmarkAblationEpsilon sweeps the cost-band width ε and reports the
// class-count sensitivity for Q4 (DESIGN.md design choice: banding).
func BenchmarkAblationEpsilon(b *testing.B) {
	e := env(b)
	q4 := bsbm.Q4()
	a, err := core.Analyze(q4, e.BSBM, nil, core.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var n025, n100, n300 int
	for i := 0; i < b.N; i++ {
		n025 = len(core.Cluster(a, core.ClusterOptions{Epsilon: 0.25}).Classes)
		n100 = len(core.Cluster(a, core.ClusterOptions{Epsilon: 1.0}).Classes)
		n300 = len(core.Cluster(a, core.ClusterOptions{Epsilon: 3.0}).Classes)
	}
	b.ReportMetric(float64(n025), "classes-eps0.25")
	b.ReportMetric(float64(n100), "classes-eps1.0")
	b.ReportMetric(float64(n300), "classes-eps3.0")
}

// BenchmarkAblationJoinOperator checks that the Cout-runtime correlation
// survives the physical join choice (hash vs sort-merge for interior
// joins).
func BenchmarkAblationJoinOperator(b *testing.B) {
	e := env(b)
	q2 := snb.Q2()
	dom, err := core.ExtractDomain(q2, e.SNB)
	if err != nil {
		b.Fatal(err)
	}
	sampler := core.NewUniformSampler(dom, 5)
	bindings := sampler.Sample(60)
	var rHash, rMerge float64
	for i := 0; i < b.N; i++ {
		for _, alg := range []exec.JoinAlgorithm{exec.HashJoin, exec.SortMergeJoin} {
			r := &workload.Runner{Store: e.SNB, Opts: exec.Options{Join: alg}}
			ms, err := r.Run(q2, bindings)
			if err != nil {
				b.Fatal(err)
			}
			p := stats.Pearson(workload.Values(ms, workload.MetricCout), workload.Values(ms, workload.MetricWork))
			if alg == exec.HashJoin {
				rHash = p
			} else {
				rMerge = p
			}
		}
	}
	b.ReportMetric(rHash, "pearson-hash")
	b.ReportMetric(rMerge, "pearson-merge")
}

// BenchmarkAblationEstimatedCout measures how well the optimizer's
// estimated Cout predicts the measured Cout across the Q4 domain —
// clustering on estimates is only sound if this correlation is high.
func BenchmarkAblationEstimatedCout(b *testing.B) {
	e := env(b)
	q4 := bsbm.Q4()
	dom, err := core.ExtractDomain(q4, e.BSBM)
	if err != nil {
		b.Fatal(err)
	}
	r := &workload.Runner{Store: e.BSBM, Opts: exec.Options{}}
	bindings := core.NewUniformSampler(dom, 6).Sample(60)
	var pearson float64
	for i := 0; i < b.N; i++ {
		ms, err := r.Run(q4, bindings)
		if err != nil {
			b.Fatal(err)
		}
		var est, meas []float64
		for _, m := range ms {
			est = append(est, m.EstCost)
			meas = append(meas, m.Cout)
		}
		pearson = stats.Pearson(est, meas)
	}
	b.ReportMetric(pearson, "pearson-est-meas")
}

// BenchmarkAblationSamplingEstimator compares the independence-assumption
// estimator against the correlation-aware sampling estimator on the SNB
// intro query (name × country — the paper's canonical correlated case):
// mean multiplicative error of the estimated result cardinality vs truth.
func BenchmarkAblationSamplingEstimator(b *testing.B) {
	e := env(b)
	q1 := snb.Q1()
	joint, err := core.ExtractJointDomain(q1, e.SNB, 200)
	if err != nil {
		b.Fatal(err)
	}
	indep := plan.NewEstimator(e.SNB)
	var errIndep, errSampling float64
	for it := 0; it < b.N; it++ {
		var sumI, sumS, n float64
		for _, bind := range joint.Bindings {
			bound, err := q1.Bind(bind)
			if err != nil {
				b.Fatal(err)
			}
			c, err := plan.Compile(bound, e.SNB)
			if err != nil {
				b.Fatal(err)
			}
			pi, err := plan.Optimize(c, indep)
			if err != nil {
				b.Fatal(err)
			}
			ps, err := plan.Optimize(c, plan.NewSamplingEstimator(e.SNB, c, 0))
			if err != nil {
				b.Fatal(err)
			}
			res, _, err := exec.Query(bound, e.SNB, exec.Options{})
			if err != nil {
				b.Fatal(err)
			}
			truth := float64(len(res.Rows))
			if truth == 0 {
				continue
			}
			sumI += multErr(pi.EstCard, truth)
			sumS += multErr(ps.EstCard, truth)
			n++
		}
		errIndep, errSampling = sumI/n, sumS/n
	}
	b.ReportMetric(errIndep, "q-error-independence")
	b.ReportMetric(errSampling, "q-error-sampling")
}

// multErr is the multiplicative "q-error" of an estimate vs truth (>= 1).
func multErr(est, truth float64) float64 {
	if est <= 0 {
		est = 0.5
	}
	if est < truth {
		return truth / est
	}
	return est / truth
}

// BenchmarkAblationCharsetEstimator compares independence vs characteristic
// sets on a subject-star query with a multi-valued predicate (hasBeenTo) —
// the case characteristic sets answer exactly.
func BenchmarkAblationCharsetEstimator(b *testing.B) {
	e := env(b)
	q := sparql.MustParse(`
PREFIX sn: <http://snb.example.org/>
SELECT * WHERE {
  ?p sn:firstName ?n .
  ?p sn:livesIn ?c .
  ?p sn:hasBeenTo ?d .
}`)
	c, err := plan.Compile(q, e.SNB)
	if err != nil {
		b.Fatal(err)
	}
	res, _, err := exec.Query(q, e.SNB, exec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	truth := float64(len(res.Rows))
	var qIndep, qCharset float64
	var numSets int
	for i := 0; i < b.N; i++ {
		cs := plan.BuildCharacteristicSets(e.SNB)
		numSets = cs.NumSets()
		pi, err := plan.Optimize(c, plan.NewEstimator(e.SNB))
		if err != nil {
			b.Fatal(err)
		}
		pc, err := plan.Optimize(c, plan.NewCharsetEstimator(e.SNB, cs, c))
		if err != nil {
			b.Fatal(err)
		}
		qIndep = multErr(pi.EstCard, truth)
		qCharset = multErr(pc.EstCard, truth)
	}
	b.ReportMetric(qIndep, "q-error-independence")
	b.ReportMetric(qCharset, "q-error-charsets")
	b.ReportMetric(float64(numSets), "charsets")
}

// --- Engine micro-benchmarks -------------------------------------------------

func BenchmarkStoreCount(b *testing.B) {
	e := env(b)
	st := e.BSBM
	typeID, _ := st.Dict().Lookup(bsbm.PredType)
	rootID, _ := st.Dict().Lookup(bsbm.TypeIRI(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.Count(store.Pattern{P: typeID, O: rootID}) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkStoreMatch(b *testing.B) {
	e := env(b)
	st := e.BSBM
	featID, _ := st.Dict().Lookup(bsbm.PredProductFeature)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		m, _ := st.Match(store.Pattern{P: featID})
		n += len(m)
	}
	if n == 0 {
		b.Fatal("no matches")
	}
}

func BenchmarkExecQ4Generic(b *testing.B) {
	e := env(b)
	bound, err := bsbm.Q4().Bind(sparql.Binding{"ProductType": bsbm.TypeIRI(0)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.Query(bound, e.BSBM, exec.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecQ4Specific(b *testing.B) {
	e := env(b)
	leafIdx := 0
	for i, n := range e.BSBMData.Types {
		if len(n.Children) == 0 {
			leafIdx = i
			break
		}
	}
	bound, err := bsbm.Q4().Bind(sparql.Binding{"ProductType": bsbm.TypeIRI(leafIdx)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.Query(bound, e.BSBM, exec.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Plan execution ----------------------------------------------------------

// benchExecQ4Engine times plan execution only (compile+optimize hoisted)
// for one BSBM Q4 binding under the given engine options.
func benchExecQ4Engine(b *testing.B, opts exec.Options) {
	e := env(b)
	bound, err := bsbm.Q4().Bind(sparql.Binding{"ProductType": bsbm.TypeIRI(0)})
	if err != nil {
		b.Fatal(err)
	}
	c, err := plan.Compile(bound, e.BSBM)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(e.BSBM))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := exec.Run(c, p, e.BSBM, opts)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkExecPushFilters times the engine with single-variable
// filters evaluated below the joins (SNB Q3 carries a FILTER, so the
// pruning is real).
func BenchmarkExecPushFilters(b *testing.B) {
	e := env(b)
	dom, err := core.ExtractDomain(snb.Q3(), e.SNB)
	if err != nil {
		b.Fatal(err)
	}
	bindings := core.NewUniformSampler(dom, 2).Sample(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &workload.Runner{Store: e.SNB, Opts: exec.Options{PushFilters: true}}
		if _, err := r.Run(snb.Q3(), bindings); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAnalyzeQ4 times the per-binding curation analysis at the given
// parallelism (1 = serial, 0 = GOMAXPROCS workers).
func benchAnalyzeQ4(b *testing.B, parallelism int) {
	e := env(b)
	q4 := bsbm.Q4()
	dom, err := core.ExtractDomain(q4, e.BSBM)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var points int
	for i := 0; i < b.N; i++ {
		a, err := core.Analyze(q4, e.BSBM, dom, core.AnalyzeOptions{Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		points = len(a.Points)
	}
	b.ReportMetric(float64(points), "bindings")
}

// BenchmarkAnalyzeSerial is the baseline single-worker curation analysis.
func BenchmarkAnalyzeSerial(b *testing.B) { benchAnalyzeQ4(b, 1) }

// BenchmarkAnalyzeParallel fans the independent bindings out across
// GOMAXPROCS workers with deterministic (byte-identical) output.
func BenchmarkAnalyzeParallel(b *testing.B) { benchAnalyzeQ4(b, 0) }

func BenchmarkDomainExtraction(b *testing.B) {
	e := env(b)
	q := snb.Q3()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExtractDomain(q, e.SNB); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeAndCluster(b *testing.B) {
	e := env(b)
	q4 := bsbm.Q4()
	dom, err := core.ExtractDomain(q4, e.BSBM)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var classes int
	for i := 0; i < b.N; i++ {
		a, err := core.Analyze(q4, e.BSBM, dom, core.AnalyzeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		classes = len(core.Cluster(a, core.ClusterOptions{}).Classes)
	}
	b.ReportMetric(float64(classes), "classes")
}

func BenchmarkUniformSampling(b *testing.B) {
	e := env(b)
	dom, err := core.ExtractDomain(snb.Q3(), e.SNB)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewUniformSampler(dom, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Sample(100)) != 100 {
			b.Fatal("short sample")
		}
	}
}

// --- Store construction & snapshot load path ---------------------------------

// benchBuild times index construction and statistics in isolation
// (dictionary encoding and dedup hoisted out via Rebuild) at the given
// parallelism over the small BSBM store.
func benchBuild(b *testing.B, parallelism int) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := e.BSBM.Rebuild(store.BuildOptions{Parallelism: parallelism})
		if st.Len() != e.BSBM.Len() {
			b.Fatal("rebuild lost triples")
		}
	}
	b.ReportMetric(float64(e.BSBM.Len()), "triples")
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	b.ReportMetric(float64(parallelism), "workers")
}

// BenchmarkBuildSerial is the old single-core path: six sorts and the
// statistics passes run back to back.
func BenchmarkBuildSerial(b *testing.B) { benchBuild(b, 1) }

// BenchmarkBuildParallel sorts the permutations concurrently (bounded by
// GOMAXPROCS) with statistics overlapped; output is byte-identical to the
// serial build.
func BenchmarkBuildParallel(b *testing.B) { benchBuild(b, 0) }

func BenchmarkDatasetGenerationBSBM(b *testing.B) {
	cfg := bsbm.TestConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := bsbm.BuildStore(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetGenerationSNB(b *testing.B) {
	cfg := snb.TestConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := snb.BuildStore(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Morsel-driven intra-query parallelism -----------------------------------

var (
	parEnvOnce sync.Once
	parStore   *store.Store
	parBinding sparql.Binding
	parErr     error
)

// benchParallelSetup builds the parallelism bench environment once: a BSBM
// store scaled so the Q3 drill-down has real intra-query work (offer-heavy,
// with enough vendors per country that the plan's source scan splits into
// dozens of morsels), plus the broadest Q3 binding over it — the heavy
// drill-down that intra-query parallelism exists to speed up
// (benchServeBinding picks the opposite extreme for the plan-cache
// dispatch benches).
func benchParallelSetup(b *testing.B) (*store.Store, sparql.Binding) {
	b.Helper()
	parEnvOnce.Do(func() {
		cfg := bsbm.TestConfig()
		cfg.Products = 6000
		cfg.Vendors = 480 // 48 per country (round-robin over 10 codes)
		cfg.OffersPerProduct = 8
		cfg.ReviewsPerProduct = 0 // reviews play no part in Q3
		cfg.Seed = 11
		st, data, err := bsbm.BuildStore(cfg)
		if err != nil {
			parErr = err
			return
		}
		parStore = st
		// Broadest binding: the most executed work over one feature per
		// type (the type choice dominates the work spread) and two
		// countries.
		tmpl := bsbm.Q3()
		best := -1.0
		for i, n := range data.Types {
			if len(n.Features) == 0 {
				continue
			}
			for _, code := range []string{"US", "KR"} {
				binding := sparql.Binding{
					"ProductType": bsbm.TypeIRI(i),
					"Feature":     n.Features[0],
					"Country":     bsbm.CountryIRI(code),
				}
				bound, err := tmpl.Bind(binding)
				if err != nil {
					parErr = err
					return
				}
				res, _, err := exec.Query(bound, st, exec.Options{})
				if err != nil {
					parErr = err
					return
				}
				if res.Work > best {
					best = res.Work
					parBinding = binding
				}
			}
		}
		if parBinding == nil {
			parErr = fmt.Errorf("no type with features in the parallel bench dataset")
		}
	})
	if parErr != nil {
		b.Fatal(parErr)
	}
	return parStore, parBinding
}

// benchExecParallel times plan execution only (compile+optimize hoisted)
// of the broad Q3 drill-down at the given intra-query parallelism. Rows
// and the Work/Cout/Scanned accounting are bit-identical across the
// BenchmarkExecParallel1/2/8 family — only wall-clock changes.
func benchExecParallel(b *testing.B, par int) {
	st, binding := benchParallelSetup(b)
	bound, err := bsbm.Q3().Bind(binding)
	if err != nil {
		b.Fatal(err)
	}
	c, err := plan.Compile(bound, st)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		b.Fatal(err)
	}
	opts := exec.Options{Parallelism: par}
	b.ResetTimer()
	var res *exec.Result
	for i := 0; i < b.N; i++ {
		res, err = exec.Run(c, p, st, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Rows)), "rows")
	b.ReportMetric(res.Work, "work")
	b.ReportMetric(float64(res.Morsels), "morsels")
	b.ReportMetric(float64(res.Workers), "workers")
}

// BenchmarkExecParallel1 is the serial baseline of the parallelism family.
func BenchmarkExecParallel1(b *testing.B) { benchExecParallel(b, 1) }

// BenchmarkExecParallel2 runs the same pipeline on up to 2 workers.
func BenchmarkExecParallel2(b *testing.B) { benchExecParallel(b, 2) }

// BenchmarkExecParallel8 runs the same pipeline on up to 8 workers; the
// acceptance target is >= 2x over BenchmarkExecParallel1.
func BenchmarkExecParallel8(b *testing.B) { benchExecParallel(b, 8) }

// benchShardedScatterGather times the same hoisted Q3 drill-down through
// a subject-hash sharded federation: per-shard cursors k-way merge back
// into the exact global index stream, so rows and accounting are
// bit-identical to the single-store run at any shard count. The 1-shard
// and 4-shard variants bracket the coordinator overhead.
func benchShardedScatterGather(b *testing.B, shards int) {
	st, binding := benchParallelSetup(b)
	sh := store.NewSharded(st, shards)
	bound, err := bsbm.Q3().Bind(binding)
	if err != nil {
		b.Fatal(err)
	}
	c, err := plan.Compile(bound, sh)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(sh))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *exec.Result
	for i := 0; i < b.N; i++ {
		res, err = exec.Run(c, p, sh, exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Rows)), "rows")
	b.ReportMetric(res.Work, "work")
}

// BenchmarkShardedScatterGather1 is the degenerate single-shard
// federation: its delta over BenchmarkExecParallel1 is the pure cost of
// the coordinator seam.
func BenchmarkShardedScatterGather1(b *testing.B) { benchShardedScatterGather(b, 1) }

// BenchmarkShardedScatterGather4 merges four subject-hash shards on
// every scan; rows, Work and Cout stay identical to the 1-shard run.
func BenchmarkShardedScatterGather4(b *testing.B) { benchShardedScatterGather(b, 4) }

// --- Query service -----------------------------------------------------------

// benchServeSetup builds a query service over the BSBM store with the given
// plan-cache size and returns a prepared BSBM Q3 template (the deep
// drill-down: six patterns, so DPsub dominates a cold plan) with the most
// selective (leaf type, own-pool feature, country) binding — measured by
// executed work units, the serving-path hot case of a pinpoint lookup.
func benchServeSetup(b *testing.B, cacheSize int) (*service.Service, *service.Prepared, sparql.Binding) {
	b.Helper()
	e := env(b)
	opts := service.DefaultOptions()
	opts.PlanCacheSize = cacheSize
	svc := service.New(e.BSBM, "", opts)
	p, err := svc.Prepare("q3", bsbm.QueryQ3Text)
	if err != nil {
		b.Fatal(err)
	}
	return svc, p, benchServeBinding(b, e)
}

var (
	serveBindOnce sync.Once
	serveBinding  sparql.Binding
	serveBindErr  error
)

// benchServeBinding searches the leaf-type x feature x country space once
// for the binding with the least executed work, so the bench pair measures
// plan-cache dispatch against cold planning rather than raw join runtime.
func benchServeBinding(b *testing.B, e *experiments.Env) sparql.Binding {
	b.Helper()
	serveBindOnce.Do(func() {
		tmpl := bsbm.Q3()
		best := -1.0
		for i, n := range e.BSBMData.Types {
			if len(n.Children) != 0 || len(n.Features) == 0 {
				continue
			}
			for _, feat := range n.Features {
				for _, code := range []string{"US", "KR"} {
					binding := sparql.Binding{
						"ProductType": bsbm.TypeIRI(i),
						"Feature":     feat,
						"Country":     bsbm.CountryIRI(code),
					}
					bound, err := tmpl.Bind(binding)
					if err != nil {
						serveBindErr = err
						return
					}
					c, err := plan.Compile(bound, e.BSBM)
					if err != nil {
						serveBindErr = err
						return
					}
					pl, err := plan.Optimize(c, plan.NewEstimator(e.BSBM))
					if err != nil {
						serveBindErr = err
						return
					}
					res, err := exec.Run(c, pl, e.BSBM, exec.Options{EarlyStop: true})
					if err != nil {
						serveBindErr = err
						return
					}
					if best < 0 || res.Work < best {
						best = res.Work
						serveBinding = binding
					}
				}
			}
		}
		if serveBinding == nil {
			serveBindErr = fmt.Errorf("no leaf type with features in the BSBM test dataset")
		}
	})
	if serveBindErr != nil {
		b.Fatal(serveBindErr)
	}
	return serveBinding
}

// BenchmarkServePreparedHit is the warm serving path: the template is
// prepared and the binding's plan cached, so each request is a cache
// lookup plus execution — zero parse/compile/optimize work.
func BenchmarkServePreparedHit(b *testing.B) {
	svc, p, binding := benchServeSetup(b, 0) // default cache
	ctx := context.Background()
	if _, err := svc.Execute(ctx, p, binding); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := svc.Execute(ctx, p, binding)
		if err != nil {
			b.Fatal(err)
		}
		if !out.CacheHit {
			b.Fatal("expected a plan-cache hit")
		}
	}
	st := svc.Stats()
	b.ReportMetric(float64(st.Cache.Hits), "cache-hits")
}

// BenchmarkServeColdPlan is the same request with the plan cache disabled:
// every execution pays bind + compile + DPsub join ordering. The ratio to
// BenchmarkServePreparedHit is the plan cache's per-request win.
func BenchmarkServeColdPlan(b *testing.B) {
	svc, p, binding := benchServeSetup(b, -1) // cache disabled
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := svc.Execute(ctx, p, binding)
		if err != nil {
			b.Fatal(err)
		}
		if out.CacheHit {
			b.Fatal("cache should be disabled")
		}
	}
}
