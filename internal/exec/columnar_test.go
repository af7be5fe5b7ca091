package exec

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

var columnarQueries = []string{
	`SELECT * WHERE { ?s <http://x/knows> ?o . }`,
	`SELECT * WHERE { ?a <http://x/knows> ?b . ?b <http://x/age> ?x . }`,
	`SELECT ?p ?d WHERE { ?p <http://x/creator> ?c . ?p <http://x/date> ?d . ?c <http://x/age> ?x . FILTER(?x > 18) } ORDER BY ?d`,
	`SELECT DISTINCT ?c WHERE { ?p <http://x/creator> ?c . }`,
	`SELECT * WHERE { ?a <http://x/knows> ?b . ?c <http://x/age> ?x . } LIMIT 4 OFFSET 1`,
	`SELECT * WHERE { ?s <http://x/age> ?x . FILTER(?x >= 30) FILTER(?x < 45) }`,
}

// TestColumnarMatchesStreaming: over a spread of query shapes the engine
// reproduces the frozen streaming rows and accounting.
func TestColumnarMatchesStreaming(t *testing.T) {
	st := buildSocialStore(t)
	for qi, src := range columnarQueries {
		assertFrozen(t, fmt.Sprintf("columnar/%d/hash", qi), st, run(t, st, src, Options{}))
	}
}

// TestColumnarKernelStats: a run reports its kernel counters.
func TestColumnarKernelStats(t *testing.T) {
	st := buildSocialStore(t)
	c := run(t, st, `SELECT * WHERE { ?s <http://x/age> ?x . FILTER(?x > 18) }`, Options{})
	if c.Kernels.Batches == 0 || c.Kernels.FilterRows == 0 {
		t.Fatalf("kernels not counted: %+v", c.Kernels)
	}
}

// TestRunAllocsFlatInRows: result rows are cut from one backing array per
// run and intermediate columns come from the pool, so the allocations of a
// run do not grow with its row count.
func TestRunAllocsFlatInRows(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?s ?p ?o . }`)
	allocs := func(n int) float64 {
		st := buildChainStore(t, n)
		c, p := compileAndPlan(t, q, st)
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(c, p, st, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 5 000 rows are five scan batches; one allocation per row would show
	// as thousands.
	small, large := allocs(10), allocs(5000)
	if large > small+100 {
		t.Fatalf("a run allocates %.0f times for 5000 rows, %.0f for 10", large, small)
	}
}

// TestRunRowsAreCapped: every result row's capacity is its width, so an
// append to one row reallocates instead of writing into the next row of
// the run's shared array.
func TestRunRowsAreCapped(t *testing.T) {
	res := run(t, buildChainStore(t, 50), `SELECT * WHERE { ?s ?p ?o . }`, Options{})
	for i, row := range res.Rows {
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d, len %d", i, cap(row), len(row))
		}
	}
	next := append([]dict.ID(nil), res.Rows[1]...)
	_ = append(res.Rows[0], 99)
	if !reflect.DeepEqual(res.Rows[1], next) {
		t.Fatalf("append to row 0 overwrote row 1: %v, want %v", res.Rows[1], next)
	}
}

// buildStarStore builds a store of hubs with predicates p1/p2/p3: three
// classes of n hubs each carry exactly two of them, while nFull extra hubs
// carry all three.
func buildStarStore(t testing.TB, n, nFull int) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	preds := []string{"p1", "p2", "p3"}
	for class := 0; class < 3; class++ {
		for i := 0; i < n; i++ {
			h := iri(fmt.Sprintf("hub%d-%04d", class, i))
			for pi, p := range preds {
				if pi == class {
					continue // each class misses one predicate
				}
				add(h, iri(p), iri(fmt.Sprintf("%s-leaf%d-%04d", p, class, i)))
			}
		}
	}
	for i := 0; i < nFull; i++ {
		h := iri(fmt.Sprintf("full%04d", i))
		for _, p := range preds {
			add(h, iri(p), iri(fmt.Sprintf("%s-full%04d", p, i)))
		}
	}
	return b.Build()
}

// TestColumnarProbeScratchReuse: the probe operator reuses one MatchBuf
// scratch buffer across all probes and its output batch across batches, so
// once warm, probing 100 outer rows of an overlay store (whose merge path
// would otherwise allocate per probe) allocates nothing.
func TestColumnarProbeScratchReuse(t *testing.T) {
	st := buildStarStore(t, 50, 5)
	d, err := st.NewDelta().Apply([]rdf.Triple{rdf.NewTriple(iri("hub9999"), iri("p1"), iri("x"))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ov := d.Overlay()
	c, _ := compilePattern(t, ov, `SELECT * WHERE { ?h <http://x/p1> ?a . ?h <http://x/p2> ?b . }`)
	ex := &executor{st: ov}
	outer, err := ex.drain(newScanOp(ex, &c.Patterns[0], c.Patterns[0].Vars()))
	if err != nil {
		t.Fatal(err)
	}
	probe := &probeOp{ex: ex, outVars: joinSchema(outer.vars, c.Patterns[1].Vars()), plan: buildProbePlan(outer.vars, &c.Patterns[1])}
	in := &colBatch{schema: outer.vars, cols: make([][]dict.ID, len(outer.cols)), n: 100}
	for j, col := range outer.cols {
		in.cols[j] = col[:100]
	}
	// AllocsPerRun's warm-up call grows the scratch and the pooled output
	// columns once; after that the operator reuses both.
	if n := testing.AllocsPerRun(20, func() { probe.probeBatch(in) }); n > 0 {
		t.Fatalf("probing 100 rows allocates %.0f times once warm, want 0", n)
	}
}
