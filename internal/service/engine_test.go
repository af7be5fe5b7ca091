package service

import (
	"context"
	"errors"
	"testing"

	"repro/internal/exec"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// buildStarServiceStore builds a store with enough star structure that a
// three-pattern hub query answers non-trivially.
func buildStarServiceStore(t testing.TB) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	iri := rdf.NewIRI
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		h := iri(rdf.NewIRI("http://x/hub").Value + string(rune('a'+i)))
		add(h, iri("http://x/p1"), rdf.NewInteger(int64(i)))
		add(h, iri("http://x/p2"), rdf.NewLiteral("x"))
		if i%4 == 0 {
			add(h, iri("http://x/p3"), rdf.NewLiteral("y"))
		}
	}
	return b.Build()
}

const starServiceQuery = `SELECT * WHERE {
  ?h <http://x/p1> ?a .
  ?h <http://x/p2> ?b .
  ?h <http://x/p3> ?c .
}`

// TestColumnarService: a default service reports the one engine and its
// kernel counters through Stats, and the ignored Leapfrog shim changes
// neither the rows nor the reported engine.
func TestColumnarService(t *testing.T) {
	st := buildStarServiceStore(t)
	ref := New(st, "", Options{})
	lf := New(st, "", Options{Exec: exec.Options{Leapfrog: true}})

	ctx := context.Background()
	want, err := ref.Query(ctx, starServiceQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lf.Query(ctx, starServiceQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Result.Rows) != len(want.Result.Rows) {
		t.Fatalf("shim service rows = %d, want %d", len(got.Result.Rows), len(want.Result.Rows))
	}
	refStats, lfStats := ref.Stats(), lf.Stats()
	if refStats.Engine.Mode != "columnar" || refStats.Engine.Leapfrog || refStats.Engine.Kernels.Batches == 0 {
		t.Fatalf("default service engine stats: %+v", refStats.Engine)
	}
	if lfStats.Engine != refStats.Engine {
		t.Fatalf("shim service engine stats %+v, want %+v", lfStats.Engine, refStats.Engine)
	}
}

// TestEngineVariantCacheKeys: every plan cache belongs to one service and
// its fixed engine configuration, so services with different configurations
// key the same query text identically, on cacheKey alone, while each
// still caches within itself.
func TestEngineVariantCacheKeys(t *testing.T) {
	st := buildStarServiceStore(t)
	q, err := sparql.Parse(starServiceQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantKey := cacheKey(q.String(), nil)
	ctx := context.Background()
	for _, opts := range []exec.Options{
		{},
		{EarlyStop: true},
	} {
		svc := New(st, "", Options{Exec: opts})
		for i := 0; i < 2; i++ {
			out, err := svc.Query(ctx, starServiceQuery, nil)
			if err != nil {
				t.Fatal(err)
			}
			if out.CacheHit != (i == 1) {
				t.Fatalf("%+v query %d: cache hit %v", opts, i, out.CacheHit)
			}
		}
		cache := svc.state.Load().cache
		cache.mu.Lock()
		_, ok := cache.byKey[wantKey]
		n := len(cache.byKey)
		cache.mu.Unlock()
		if !ok || n != 1 {
			t.Fatalf("%+v: cache holds %d entries, key %q present %v", opts, n, wantKey, ok)
		}
	}
}

// TestParseEngineModeRejectsRemovedEngines: the shim accepts only the one
// engine and names the removed ones with a typed error.
func TestParseEngineModeRejectsRemovedEngines(t *testing.T) {
	for _, name := range []string{"", "columnar"} {
		if m, err := ParseEngineMode(name); err != nil || m != exec.Columnar {
			t.Fatalf("ParseEngineMode(%q) = %v, %v", name, m, err)
		}
	}
	for _, name := range []string{"streaming", "materializing", "vectorized"} {
		_, err := ParseEngineMode(name)
		var ee *EngineError
		if !errors.As(err, &ee) || ee.Name != name {
			t.Fatalf("ParseEngineMode(%q) error = %v, want *EngineError", name, err)
		}
	}
}
