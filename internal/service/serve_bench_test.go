package service

import (
	"context"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/sparql"
	"repro/internal/store"
)

// BenchmarkServe times one Execute of a prepared BSBM Q3 — the deep
// drill-down, six patterns, so DPsub dominates a cold plan — with the
// pinpoint binding that executes the least work, so the pair measures
// plan-cache dispatch rather than join runtime. prepared-hit finds the
// binding's plan in the cache and does no parse, compile or optimize
// work; cold-plan runs with the cache disabled and pays bind + compile +
// DPsub on every request. Their ratio is the plan cache's per-request
// win.
func BenchmarkServe(b *testing.B) {
	st, data, err := bsbm.BuildStore(bsbm.TestConfig())
	if err != nil {
		b.Fatal(err)
	}
	binding := leastWorkQ3Binding(b, st, data)
	ctx := context.Background()
	for _, c := range []struct {
		name      string
		cacheSize int
		hit       bool
	}{{"prepared-hit", 0, true}, {"cold-plan", -1, false}} {
		b.Run(c.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.PlanCacheSize = c.cacheSize
			svc, p := serveQ3(b, st, opts)
			warm, err := svc.Execute(ctx, p, binding) // fills the plan cache
			if err != nil {
				b.Fatal(err)
			}
			warm.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := svc.Execute(ctx, p, binding)
				if err != nil {
					b.Fatal(err)
				}
				if out.CacheHit != c.hit {
					b.Fatalf("plan-cache hit = %v, want %v", out.CacheHit, c.hit)
				}
				out.Close()
			}
		})
	}
}

// serveQ3 returns a service over st and the prepared BSBM Q3 template.
func serveQ3(b *testing.B, st *store.Store, opts Options) (*Service, *Prepared) {
	b.Helper()
	svc := New(st, "", opts)
	p, err := svc.Prepare("q3", bsbm.QueryQ3Text)
	if err != nil {
		b.Fatal(err)
	}
	return svc, p
}

// leastWorkQ3Binding searches the leaf type × own feature × country space
// for the Q3 binding with the least executed work.
func leastWorkQ3Binding(b *testing.B, st *store.Store, data *bsbm.Dataset) sparql.Binding {
	b.Helper()
	opts := DefaultOptions()
	opts.PlanCacheSize = -1
	svc, p := serveQ3(b, st, opts)
	var best sparql.Binding
	bestWork := -1.0
	for i, n := range data.Types {
		if len(n.Children) != 0 {
			continue
		}
		for _, feat := range n.Features {
			for _, code := range []string{"US", "KR"} {
				binding := sparql.Binding{
					"ProductType": bsbm.TypeIRI(i),
					"Feature":     feat,
					"Country":     bsbm.CountryIRI(code),
				}
				out, err := svc.Execute(context.Background(), p, binding)
				if err != nil {
					b.Fatal(err)
				}
				if bestWork < 0 || out.Result.Work < bestWork {
					best, bestWork = binding, out.Result.Work
				}
				out.Close()
			}
		}
	}
	if best == nil {
		b.Fatal("no leaf type with features in the BSBM test dataset")
	}
	return best
}
