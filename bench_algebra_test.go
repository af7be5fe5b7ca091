package repro

// Compositional-algebra benchmarks: OPTIONAL, UNION and aggregation over
// the same broad BSBM drill-down world as the parallel/columnar bench
// families, reporting rows and the Work/Cout accounting as custom metrics.

import (
	"testing"

	"repro/internal/bsbm"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sparql"
)

// benchAlgebra times one algebra template against the shared BSBM world,
// reporting the result metrics.
func benchAlgebra(b *testing.B, src string) {
	st, binding := benchParallelSetup(b)
	tmpl, err := sparql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := tmpl.Bind(binding)
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
	b.ResetTimer()
	var res *exec.Result
	for i := 0; i < b.N; i++ {
		res, err = exec.Run(c, p, st, exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Rows)), "rows")
	b.ReportMetric(res.Work, "work")
	b.ReportMetric(res.Cout, "cout")
}

// aggregateText counts offers per product of the bound type — the
// grouped-aggregation shape over the skewed offer distribution.
const aggregateText = `
PREFIX bsbm: <http://bsbm.example.org/>
SELECT ?product (COUNT(*) AS ?n) WHERE {
  ?product a %ProductType .
  ?offer bsbm:product ?product .
} GROUP BY ?product HAVING(?n >= 2) ORDER BY ?product`

// BenchmarkAlgebraOptionalColumnar times the Q5 optional-offers drill-down.
func BenchmarkAlgebraOptionalColumnar(b *testing.B) { benchAlgebra(b, bsbm.QueryQ5Text) }

// BenchmarkAlgebraUnionColumnar times the Q6 offers-or-reviews union.
func BenchmarkAlgebraUnionColumnar(b *testing.B) { benchAlgebra(b, bsbm.QueryQ6Text) }

// BenchmarkAlgebraAggregateColumnar times grouped aggregation with HAVING.
func BenchmarkAlgebraAggregateColumnar(b *testing.B) { benchAlgebra(b, aggregateText) }
