package service

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// algebraCacheQueries: one query per compositional construct, all
// answerable against buildTinyStore. Each has a distinct composed plan
// signature (lj/un/jn spines), so each must occupy its own cache entry.
var algebraCacheQueries = []struct {
	name string
	text string
}{
	{"optional", `SELECT ?p ?q ?a WHERE { ?p <http://x/knows> ?q . OPTIONAL { ?q <http://x/age> ?a . } } ORDER BY ?p ?q`},
	{"union", `SELECT ?s ?o WHERE { { ?s <http://x/knows> ?o . } UNION { ?o <http://x/knows> ?s . } } ORDER BY ?s ?o`},
	{"aggregate", `SELECT ?s (COUNT(*) AS ?n) WHERE { ?s <http://x/knows> ?o . } GROUP BY ?s ORDER BY ?s`},
}

// TestAlgebraPlanCachePerConstruct: every compositional construct caches
// its plan — the second execution of the same text is a cache hit with
// identical decoded rows — and distinct constructs occupy distinct
// entries (one miss each, never a false share).
func TestAlgebraPlanCachePerConstruct(t *testing.T) {
	svc := New(buildTinyStore(t), "", Options{})
	ctx := context.Background()
	for _, q := range algebraCacheQueries {
		out1, err := svc.Query(ctx, q.text, nil)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if out1.CacheHit {
			t.Fatalf("%s: first execution cannot be a cache hit", q.name)
		}
		out2, err := svc.Query(ctx, q.text, nil)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if !out2.CacheHit {
			t.Fatalf("%s: second execution should hit the plan cache", q.name)
		}
		if !reflect.DeepEqual(out1.DecodedRows(), out2.DecodedRows()) {
			t.Fatalf("%s: cached plan changed the rows:\nfirst:  %v\nsecond: %v",
				q.name, out1.DecodedRows(), out2.DecodedRows())
		}
	}
	st := svc.Stats()
	if want := uint64(len(algebraCacheQueries)); st.Cache.Misses != want || st.Cache.Hits != want {
		t.Fatalf("cache counters = %+v, want %d misses and %d hits", st.Cache, want, want)
	}
	if st.Cache.Size != len(algebraCacheQueries) {
		t.Fatalf("cache size = %d, want one entry per construct (%d)", st.Cache.Size, len(algebraCacheQueries))
	}
}

// TestConcurrentHitsShareOnePlan: a cached plan carries its operator
// tree, which every hit builds from, so concurrent hits on one entry —
// a flat query and each compositional construct — must each return the
// serial rows and accounting (run it under -race).
func TestConcurrentHitsShareOnePlan(t *testing.T) {
	svc := New(buildTinyStore(t), "", Options{Workers: 4, QueueDepth: 1 << 10})
	ctx := context.Background()
	queries := append([]struct{ name, text string }{{"flat",
		`SELECT ?f ?a WHERE { <http://x/alice> <http://x/knows> ?f . ?f <http://x/age> ?a . FILTER(?a > 20) } ORDER BY DESC(?a)`}},
		algebraCacheQueries...)
	want := make([]string, len(queries))
	for i, q := range queries {
		out, err := svc.Query(ctx, q.text, nil)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		want[i] = canonical(out)
		out.Close()
	}
	const goroutines, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(queries)
				out, err := svc.Query(ctx, queries[i].text, nil)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", queries[i].name, err)
					return
				}
				got, hit := canonical(out), out.CacheHit
				out.Close()
				if !hit || got != want[i] {
					errs <- fmt.Errorf("%s: hit %v, got\n%s\nwant\n%s", queries[i].name, hit, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := svc.Stats(); st.Cache.Size != len(queries) || st.Cache.Hits != goroutines*rounds {
		t.Fatalf("cache = %+v, want %d entries and %d hits", st.Cache, len(queries), goroutines*rounds)
	}
}

// TestServiceDecodesUnboundAsUndef: OPTIONAL rows with unbound cells
// survive response rendering — the service decodes the dict.None sentinel
// as "UNDEF" instead of panicking in Dict.Decode.
func TestServiceDecodesUnboundAsUndef(t *testing.T) {
	svc := New(buildTinyStore(t), "", Options{})
	// carol knows nobody, so joining her back as subject of the optional
	// pattern leaves ?b unbound on some rows.
	out, err := svc.Query(context.Background(),
		`SELECT ?s ?o ?b WHERE { ?s <http://x/knows> ?o . OPTIONAL { ?o <http://x/knows> ?b . } } ORDER BY ?s ?o ?b`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.DecodedRows()
	var undef, bound int
	for _, r := range rows {
		if r[2] == "UNDEF" {
			undef++
		} else {
			bound++
		}
	}
	if undef == 0 || bound == 0 {
		t.Fatalf("want both UNDEF and bound optional cells, got rows %v", rows)
	}
}
