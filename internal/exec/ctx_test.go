package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// TestEarlyStopRowsUnchanged checks that EarlyStop never changes result
// rows — only the accounting may shrink (it reflects the work actually
// done, never more than the draining run's).
func TestEarlyStopRowsUnchanged(t *testing.T) {
	st := buildStreamStore(t)
	for _, src := range equivalenceQueries {
		q := sparql.MustParse(src)
		full, _, err := Query(q, st, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		early, _, err := Query(q, st, Options{EarlyStop: true})
		if err != nil {
			t.Fatalf("%s early: %v", src, err)
		}
		if len(early.Rows) != len(full.Rows) {
			t.Fatalf("%s: EarlyStop changed row count %d -> %d", src, len(full.Rows), len(early.Rows))
		}
		for i := range early.Rows {
			for j := range early.Rows[i] {
				if early.Rows[i][j] != full.Rows[i][j] {
					t.Fatalf("%s: EarlyStop changed row %d", src, i)
				}
			}
		}
		if early.Work > full.Work || early.Scanned > full.Scanned || early.Cout > full.Cout {
			t.Fatalf("%s: EarlyStop did more work: work %v>%v scanned %d>%d cout %v>%v",
				src, early.Work, full.Work, early.Scanned, full.Scanned, early.Cout, full.Cout)
		}
		if q.Limit == 0 {
			// Without LIMIT there is nothing to stop early: the accounting
			// must be bit-identical.
			assertResultsIdentical(t, src+" (no limit)", early, full)
		}
	}
}

// TestEarlyStopSkipsWork checks the point of the flag: a LIMIT over a large
// scan stops after ~limit tuples instead of draining thousands.
func TestEarlyStopSkipsWork(t *testing.T) {
	st := buildChainStore(t, 6000)
	q := sparql.MustParse(`SELECT * WHERE { ?s ?p ?o . } LIMIT 5`)
	full, _, err := Query(q, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	early, _, err := Query(q, st, Options{EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(early.Rows) != 5 || len(full.Rows) != 5 {
		t.Fatalf("rows: early %d full %d", len(early.Rows), len(full.Rows))
	}
	if full.Scanned < 1000 {
		t.Fatalf("draining run should scan the whole store, scanned %d", full.Scanned)
	}
	if early.Scanned > 2*batchSize {
		t.Fatalf("EarlyStop should stop within a couple of batches, scanned %d", early.Scanned)
	}
}

// TestRunCtxCancellation checks a run aborts with the context's error when
// it is cancelled.
func TestRunCtxCancellation(t *testing.T) {
	st := buildStreamStore(t)
	q := sparql.MustParse(`SELECT * WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c . }`)
	c, err := plan.Compile(q, st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, c, p, st, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// A live context executes normally and matches Run exactly.
	got, err := RunCtx(context.Background(), c, p, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(c, p, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "live ctx", got, want)
}

// buildChainStore creates a deterministic chain graph with n triples —
// large enough that a full scan spans many stream batches.
func buildChainStore(t testing.TB, n int) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	for i := 0; i < n; i++ {
		tr := rdf.NewTriple(
			iri(fmt.Sprintf("s%d", i)),
			iri(fmt.Sprintf("p%d", i%3)),
			iri(fmt.Sprintf("s%d", (i+1)%n)),
		)
		if err := b.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// buildPeopleStore generates a social graph with the same vocabulary as
// buildStreamStore but ~n people, so scans and sorts span many batches.
func buildPeopleStore(t testing.TB, n int) *store.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	person := func(i int) rdf.Term { return iri(fmt.Sprintf("person%d", i)) }
	for i := 0; i < n; i++ {
		add(person(i), iri("age"), rdf.NewInteger(int64(15+rng.Intn(60))))
		for k := 0; k < 1+rng.Intn(4); k++ {
			add(person(i), iri("knows"), person(rng.Intn(n)))
		}
		if rng.Intn(3) == 0 {
			post := iri(fmt.Sprintf("post%d", i))
			add(post, iri("creator"), person(rng.Intn(n)))
			add(post, iri("date"), rdf.NewTypedLiteral(
				fmt.Sprintf("2013-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28)), rdf.XSDDate))
		}
	}
	// buildStreamStore's named entities.
	add(iri("alice"), iri("knows"), iri("bob"))
	add(iri("alice"), iri("age"), rdf.NewInteger(30))
	add(iri("bob"), iri("age"), rdf.NewInteger(17))
	add(iri("post1"), iri("creator"), iri("bob"))
	add(iri("n1"), iri("p"), iri("n1"))
	return b.Build()
}

// countdownCtx reports Done after its Err method has been polled n times —
// a deterministic stand-in for a client that drops mid-execution, used to
// prove the blocking kernels poll cancellation *inside* their loops.
type countdownCtx struct {
	context.Context
	calls int
	after int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// bigRelation builds a relation of n rows over two columns with many
// duplicate join keys.
func bigRelation(vars []sparql.Var, n, keys int) *colRelation {
	rel := &colRelation{vars: vars, cols: make([][]dict.ID, 2), n: n}
	for i := 0; i < n; i++ {
		rel.cols[0] = append(rel.cols[0], dict.ID(1+i%keys))
		rel.cols[1] = append(rel.cols[1], dict.ID(1+i))
	}
	return rel
}

// TestHashJoinCancelsMidBuild: with a context that expires after a handful
// of polls, the hash join must abort inside its build loop — the build side
// alone crosses many cancelCheckRows boundaries.
func TestHashJoinCancelsMidBuild(t *testing.T) {
	st := buildStreamStore(t)
	l := bigRelation([]sparql.Var{"a", "b"}, 10*cancelCheckRows, 50)
	r := bigRelation([]sparql.Var{"a", "c"}, 12*cancelCheckRows, 50)
	ex := &executor{st: st, ctx: &countdownCtx{Context: context.Background(), after: 3}}
	if _, err := ex.hashJoin(l, r, sharedCols(l.vars, r.vars), joinSchema(l.vars, r.vars)); !errors.Is(err, context.Canceled) {
		t.Fatalf("hash join with cancelled ctx: err = %v, want Canceled", err)
	}
	// Sanity: a join of the same shape (but bounded fanout) completes under
	// a live context.
	ex = &executor{st: st}
	out, err := ex.hashJoin(
		bigRelation([]sparql.Var{"a", "b"}, 5000, 5000),
		bigRelation([]sparql.Var{"a", "c"}, 5000, 5000),
		[][2]int{{0, 0}}, []sparql.Var{"a", "b", "c"})
	if err != nil || out.n == 0 {
		t.Fatalf("live hash join: %d rows, err %v", out.n, err)
	}
}

// TestCrossProductCancelsMidKernel: the O(n*m) emit loop polls the context.
func TestCrossProductCancelsMidKernel(t *testing.T) {
	st := buildStreamStore(t)
	l := bigRelation([]sparql.Var{"a", "b"}, 3000, 3000)
	r := bigRelation([]sparql.Var{"c", "d"}, 3000, 3000)
	ex := &executor{st: st, ctx: &countdownCtx{Context: context.Background(), after: 3}}
	if _, err := ex.crossProduct(l, r, joinSchema(l.vars, r.vars)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cross product with cancelled ctx: err = %v, want Canceled", err)
	}
}

// TestOrderSortCancels: ORDER BY over a large buffered input aborts
// mid-sort through the comparator poll.
func TestOrderSortCancels(t *testing.T) {
	st := buildPeopleStore(t, 4000)
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://x/age> ?a . } ORDER BY ?a`)
	// Let the scan batches through, then expire during the sort: the scan
	// polls once per batch (~4000/1024 pulls), the sort every
	// cancelCheckRows comparisons of ~n log n total.
	ctx := &countdownCtx{Context: context.Background(), after: 8}
	c, p := compileAndPlan(t, q, st)
	if _, err := RunCtx(ctx, c, p, st, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("order-by with expiring ctx: err = %v, want Canceled", err)
	}
}

func compileAndPlan(t *testing.T, q *sparql.Query, st *store.Store) (*plan.Compiled, *plan.Plan) {
	t.Helper()
	c, err := plan.Compile(q, st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}
