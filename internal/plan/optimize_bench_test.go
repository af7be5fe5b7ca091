package plan_test

import (
	"testing"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// compileMidDomain compiles tmpl under the binding in the middle of its
// parameter domain over st.
func compileMidDomain(tb testing.TB, tmpl *sparql.Query, st *store.Store) *plan.Compiled {
	tb.Helper()
	dom, err := core.ExtractDomain(tmpl, st)
	if err != nil {
		tb.Fatal(err)
	}
	bound, err := tmpl.Bind(dom.At(dom.Size() / 2))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := plan.Compile(bound, st)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkOptimize times one cold optimization — what every request with
// a new binding pays — of BSBM Q3 (six patterns, the uniform-cold
// template) and Q4 (four patterns) over the benchmark's default-scale
// dataset (10 000 products).
func BenchmarkOptimize(b *testing.B) {
	cfg := bsbm.DefaultConfig()
	cfg.Products = 10000
	st, _, err := bsbm.BuildStore(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct {
		name string
		tmpl *sparql.Query
	}{{"Q3", bsbm.Q3()}, {"Q4", bsbm.Q4()}} {
		b.Run(q.name, func(b *testing.B) {
			c := compileMidDomain(b, q.tmpl, st)
			est := plan.NewEstimator(st)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := plan.Optimize(c, est); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOptimizeAllocs is the hard gate on the optimizer's allocations:
// counts are noise-free, so a regression of the DPsub kernel shows here
// before it shows in any timing. The map-based optimizer it replaced made
// 1 881 allocations on Q3.
func TestOptimizeAllocs(t *testing.T) {
	st, _, err := bsbm.BuildStore(bsbm.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := compileMidDomain(t, bsbm.Q3(), st)
	est := plan.NewEstimator(st)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := plan.Optimize(c, est); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("Optimize(Q3) allocates %v times, want ≤ 64", allocs)
	}
	t.Logf("Optimize(Q3): %v allocs", allocs)
}
