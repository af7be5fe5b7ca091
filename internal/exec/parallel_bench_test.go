package exec

import (
	"fmt"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/plan"
	"repro/internal/sparql"
)

// BenchmarkExecParallel times plan execution only (compile and optimize
// hoisted) of the broadest BSBM Q3 drill-down at intra-query parallelism
// 1, 2 and 8. The store is scaled so the drill-down has real work:
// offer-heavy, with enough vendors per country that the source scan
// splits into dozens of morsels. Rows and Work/Cout/Scanned are
// bit-identical across the three; only wall-clock changes.
func BenchmarkExecParallel(b *testing.B) {
	cfg := bsbm.TestConfig()
	cfg.Products = 6000
	cfg.Vendors = 480 // 48 per country (round-robin over 10 codes)
	cfg.OffersPerProduct = 8
	cfg.ReviewsPerProduct = 0 // reviews play no part in Q3
	cfg.Seed = 11
	st, data, err := bsbm.BuildStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// The broadest binding: the most executed work over the first feature
	// of each type (the type choice dominates the work spread) and two
	// countries.
	var broadest *sparql.Query
	best := -1.0
	for i, n := range data.Types {
		if len(n.Features) == 0 {
			continue
		}
		for _, code := range []string{"US", "KR"} {
			bound, err := bsbm.Q3().Bind(sparql.Binding{
				"ProductType": bsbm.TypeIRI(i),
				"Feature":     n.Features[0],
				"Country":     bsbm.CountryIRI(code),
			})
			if err != nil {
				b.Fatal(err)
			}
			res, _, err := Query(bound, st, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Work > best {
				best, broadest = res.Work, bound
			}
		}
	}
	if broadest == nil {
		b.Fatal("no type with features in the benchmark dataset")
	}
	c, err := plan.Compile(broadest, st)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				if res, err = Run(c, p, st, Options{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Rows)), "rows")
			b.ReportMetric(res.Work, "work")
			b.ReportMetric(float64(res.Morsels), "morsels")
			b.ReportMetric(float64(res.Workers), "workers")
		})
	}
}
