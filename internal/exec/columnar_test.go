package exec

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// assertBitIdentical checks the columnar acceptance surface: same Vars,
// Rows in the same order, and the same Cout/Work/Scanned accounting.
func assertBitIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Vars, want.Vars) {
		t.Fatalf("%s: vars %v, want %v", label, got.Vars, want.Vars)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("%s: %d rows, want %d (or order differs)", label, len(got.Rows), len(want.Rows))
	}
	if got.Cout != want.Cout || got.Work != want.Work || got.Scanned != want.Scanned {
		t.Fatalf("%s: accounting (cout=%v work=%v scanned=%d), want (cout=%v work=%v scanned=%d)",
			label, got.Cout, got.Work, got.Scanned, want.Cout, want.Work, want.Scanned)
	}
}

var columnarQueries = []string{
	`SELECT * WHERE { ?s <http://x/knows> ?o . }`,
	`SELECT * WHERE { ?a <http://x/knows> ?b . ?b <http://x/age> ?x . }`,
	`SELECT ?p ?d WHERE { ?p <http://x/creator> ?c . ?p <http://x/date> ?d . ?c <http://x/age> ?x . FILTER(?x > 18) } ORDER BY ?d`,
	`SELECT DISTINCT ?c WHERE { ?p <http://x/creator> ?c . }`,
	`SELECT * WHERE { ?a <http://x/knows> ?b . ?c <http://x/age> ?x . } LIMIT 4 OFFSET 1`,
	`SELECT * WHERE { ?s <http://x/age> ?x . FILTER(?x >= 30) FILTER(?x < 45) }`,
}

// TestColumnarMatchesStreaming: over a spread of query shapes the engine
// reproduces the frozen streaming rows and accounting serially, and is
// bit-identical to that serial run at Parallelism 2 and 8 with
// single-triple morsels.
func TestColumnarMatchesStreaming(t *testing.T) {
	st := buildSocialStore(t)
	for qi, src := range columnarQueries {
		for _, alg := range []JoinAlgorithm{HashJoin, SortMergeJoin} {
			serial := run(t, st, src, Options{Join: alg})
			assertFrozen(t, fmt.Sprintf("columnar/%d/%s", qi, algNames[alg]), st, serial)
			for _, par := range []int{2, 8} {
				pg := run(t, st, src, Options{Join: alg, Parallelism: par, MorselSize: 1})
				assertBitIdentical(t, fmt.Sprintf("q%d alg%d p%d", qi, alg, par), pg, serial)
			}
		}
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

// buildStarStore builds a store where EVERY binary join order over the
// three-pattern star materializes a large intermediate: three classes of
// n hubs each carry exactly two of the predicates p1/p2/p3 (so every
// pairwise hub intersection has at least n members), while only nFull
// extra hubs carry all three. Whatever pair a binary plan joins first, it
// materializes n+nFull rows to produce nFull results; the multiway join
// intersects all three hub sets up front.
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

const starSrc = `SELECT * WHERE {
  ?h <http://x/p1> ?a .
  ?h <http://x/p2> ?b .
  ?h <http://x/p3> ?c .
}`

// TestLeapfrogStarCoutAdvantage is the PR's acceptance check in unit-test
// form: on a star query whose binary plan materializes a large
// intermediate, the leapfrog triejoin's measured Cout and Work must be
// asymptotically smaller (here: >10x), with the identical row multiset.
func TestLeapfrogStarCoutAdvantage(t *testing.T) {
	st := buildStarStore(t, 200, 2) // >=202-row binary intermediate, 2 result rows
	bin := run(t, st, starSrc, Options{})
	lf := run(t, st, starSrc, Options{Leapfrog: true})
	if len(lf.Rows) != 2 || len(bin.Rows) != 2 {
		t.Fatalf("rows: leapfrog %d, binary %d, want 2", len(lf.Rows), len(bin.Rows))
	}
	if got, want := rowsAsStrings(st, lf), rowsAsStrings(st, bin); !reflect.DeepEqual(got, want) {
		t.Fatalf("row multiset diverges:\nleapfrog %v\nbinary   %v", got, want)
	}
	if lf.Kernels.LeapfrogRows != 2 {
		t.Fatalf("LeapfrogRows = %d, want 2 (did the leapfrog node run?)", lf.Kernels.LeapfrogRows)
	}
	// The binary plan pays for the 200-row p1-p2 intermediate in both Cout
	// and Work; the multiway join intersects all three patterns on ?h first
	// and never materializes it.
	if lf.Cout*10 >= bin.Cout {
		t.Fatalf("Cout advantage missing: leapfrog %v vs binary %v", lf.Cout, bin.Cout)
	}
	if lf.Work*10 >= bin.Work {
		t.Fatalf("Work advantage missing: leapfrog %v vs binary %v", lf.Work, bin.Work)
	}
}

// TestLeapfrogParallelIdentical: the value-partitioned parallel leapfrog
// must be bit-identical to the serial run — rows, order and accounting —
// because per level-match accounting is additive across level-0 value
// partitions and morsel-order concatenation restores the serial order.
func TestLeapfrogParallelIdentical(t *testing.T) {
	st := buildStarStore(t, 300, 100)
	serial := run(t, st, starSrc, Options{Leapfrog: true})
	if len(serial.Rows) != 100 {
		t.Fatalf("serial rows = %d, want 100", len(serial.Rows))
	}
	for _, par := range []int{2, 8} {
		for _, ms := range []int{1, 16} {
			got := run(t, st, starSrc, Options{Leapfrog: true, Parallelism: par, MorselSize: ms})
			assertBitIdentical(t, fmt.Sprintf("leapfrog-p%d-m%d", par, ms), got, serial)
			if par > 1 && ms == 1 && got.Morsels < 2 {
				t.Fatalf("p%d m%d: %d morsels, leapfrog did not parallelize", par, ms, got.Morsels)
			}
		}
	}
}

// TestLeapfrogEpilogue: leapfrog composes with the epilogue operators and
// with filters.
func TestLeapfrogEpilogue(t *testing.T) {
	st := buildStarStore(t, 60, 20)
	src := `SELECT DISTINCT ?h WHERE {
  ?h <http://x/p1> ?a .
  ?h <http://x/p2> ?b .
  ?h <http://x/p3> ?c .
} ORDER BY ?h`
	bin := run(t, st, src, Options{})
	lf := run(t, st, src, Options{Mode: Columnar, Leapfrog: true})
	// With a total ORDER BY the row order is fully determined, so the
	// results agree bit-for-bit in rows (accounting differs by design).
	if !reflect.DeepEqual(lf.Rows, bin.Rows) {
		t.Fatalf("ordered rows diverge: %d vs %d", len(lf.Rows), len(bin.Rows))
	}
}

// TestLeapfrogExplainSignature: with Leapfrog set, an eligible star BGP
// lowers to the multiway operator.
func TestLeapfrogExplainSignature(t *testing.T) {
	st := buildStarStore(t, 20, 3)
	q := sparql.MustParse(starSrc)
	c, err := plan.Compile(q, st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		t.Fatal(err)
	}
	ph, err := plan.Lower(c, p, PhysOptions(Options{Leapfrog: true}))
	if err != nil {
		t.Fatal(err)
	}
	if ph.Root.Op != plan.PhysLeapfrog {
		t.Fatalf("root = %v, want leapfrog\n%s", ph.Root.Op, ph)
	}
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
	outer, err := ex.drain(newScanOp(ex, &c.Patterns[0]))
	if err != nil {
		t.Fatal(err)
	}
	probe := &probeOp{ex: ex, plan: buildProbePlan(outer.vars, &c.Patterns[1])}
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
