package experiments

// Ablations of the design choices the experiments rest on. Each reports
// its result as custom metrics; no table of cmd/repro prints them.

import (
	"testing"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/snb"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/workload"
)

// BenchmarkAblationGreedyVsDP compares the greedy join ordering against
// exact DP across the Q4 domain: how often greedy picks a suboptimal plan
// and how much cost it adds.
func BenchmarkAblationGreedyVsDP(b *testing.B) {
	e := sharedEnv(b)
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
				worstRatio = max(worstRatio, gr.Points[j].Cost/dp.Points[j].Cost)
			}
		}
	}
	b.ReportMetric(mismatches/total*100, "plan-mismatch-%")
	b.ReportMetric(worstRatio, "worst-cost-ratio")
}

// BenchmarkAblationEpsilon sweeps the cost-band width ε and reports the
// class-count sensitivity for Q4.
func BenchmarkAblationEpsilon(b *testing.B) {
	e := sharedEnv(b)
	a, err := core.Analyze(bsbm.Q4(), e.BSBM, nil, core.AnalyzeOptions{})
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

// BenchmarkAblationJoinOperator checks that the Cout-work correlation
// survives the physical join choice (hash vs sort-merge for interior
// joins).
func BenchmarkAblationJoinOperator(b *testing.B) {
	e := sharedEnv(b)
	q2 := snb.Q2()
	dom, err := core.ExtractDomain(q2, e.SNB)
	if err != nil {
		b.Fatal(err)
	}
	bindings := core.NewUniformSampler(dom, 5).Sample(60)
	var pearson [2]float64
	for i := 0; i < b.N; i++ {
		for k, alg := range []exec.JoinAlgorithm{exec.HashJoin, exec.SortMergeJoin} {
			r := &workload.Runner{Store: e.SNB, Opts: exec.Options{Join: alg}}
			ms, err := r.Run(q2, bindings)
			if err != nil {
				b.Fatal(err)
			}
			pearson[k] = stats.Pearson(workload.Values(ms, workload.MetricCout), workload.Values(ms, workload.MetricWork))
		}
	}
	b.ReportMetric(pearson[0], "pearson-hash")
	b.ReportMetric(pearson[1], "pearson-merge")
}

// BenchmarkAblationSamplingEstimator compares the independence-assumption
// estimator against the correlation-aware sampling estimator on the SNB
// intro query (name × country — the paper's canonical correlated case):
// mean multiplicative error of the estimated result cardinality vs truth.
func BenchmarkAblationSamplingEstimator(b *testing.B) {
	e := sharedEnv(b)
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
			sumI += qError(pi.EstCard, truth)
			sumS += qError(ps.EstCard, truth)
			n++
		}
		errIndep, errSampling = sumI/n, sumS/n
	}
	b.ReportMetric(errIndep, "q-error-independence")
	b.ReportMetric(errSampling, "q-error-sampling")
}

// BenchmarkAblationCharsetEstimator compares independence vs characteristic
// sets on a subject-star query with a multi-valued predicate (hasBeenTo) —
// the case characteristic sets answer exactly.
func BenchmarkAblationCharsetEstimator(b *testing.B) {
	e := sharedEnv(b)
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
		qIndep = qError(pi.EstCard, truth)
		qCharset = qError(pc.EstCard, truth)
	}
	b.ReportMetric(qIndep, "q-error-independence")
	b.ReportMetric(qCharset, "q-error-charsets")
	b.ReportMetric(float64(numSets), "charsets")
}

// qError is the multiplicative error of an estimate vs truth (>= 1).
func qError(est, truth float64) float64 {
	if est <= 0 {
		est = 0.5
	}
	if est < truth {
		return truth / est
	}
	return est / truth
}
