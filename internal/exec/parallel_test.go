package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// buildParallelStore generates a social graph with the same vocabulary as
// buildStreamStore but ~n people, so the equivalence queries have scans and
// probe chains spanning many morsels.
func buildParallelStore(t testing.TB, n int) *store.Store {
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
	// Keep buildStreamStore's named entities so every equivalence query
	// with constants still matches something.
	add(iri("alice"), iri("knows"), iri("bob"))
	add(iri("alice"), iri("age"), rdf.NewInteger(30))
	add(iri("bob"), iri("age"), rdf.NewInteger(17))
	add(iri("post1"), iri("creator"), iri("bob"))
	add(iri("n1"), iri("p"), iri("n1"))
	return b.Build()
}

// TestParallelMatchesSerial: over every equivalence query, execution at
// Parallelism 2 and 8 must be bit-identical — rows, order, Cout, Work,
// Scanned — to the serial run. A small MorselSize forces genuine
// multi-morsel parallel execution on the test store.
func TestParallelMatchesSerial(t *testing.T) {
	st := buildParallelStore(t, 1500)
	for _, src := range equivalenceQueries {
		q := sparql.MustParse(src)
		serial, _, err := Query(q, st, Options{})
		if err != nil {
			t.Fatalf("serial %s: %v", src, err)
		}
		for _, par := range []int{2, 8} {
			res, _, err := Query(q, st, Options{Parallelism: par, MorselSize: 64})
			if err != nil {
				t.Fatalf("parallel=%d %s: %v", par, src, err)
			}
			assertResultsIdentical(t, fmt.Sprintf("%s (par %d)", src, par), res, serial)
		}
	}
}

// TestParallelReportsSchedule: a multi-morsel run reports its morsel count
// and worker ceiling, while serial runs report zero for both.
func TestParallelReportsSchedule(t *testing.T) {
	st := buildParallelStore(t, 1500)
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://x/knows> ?o . ?o <http://x/age> ?a . }`)
	serial, _, err := Query(q, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Morsels != 0 || serial.Workers != 0 {
		t.Fatalf("serial run reported morsels=%d workers=%d", serial.Morsels, serial.Workers)
	}
	res, _, err := Query(q, st, Options{Parallelism: 4, MorselSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Morsels < 2 {
		t.Fatalf("parallel run reported %d morsels, want >= 2", res.Morsels)
	}
	if res.Workers < 2 || res.Workers > 4 {
		t.Fatalf("parallel run reported %d workers, want 2..4", res.Workers)
	}
	assertResultsIdentical(t, "schedule run", res, serial)
}

// TestParallelSmallInputFallsBackSerial: when the source range fits one
// morsel the driver uses the plain serial chain — and reports no morsels.
func TestParallelSmallInputFallsBackSerial(t *testing.T) {
	st := buildStreamStore(t)
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://x/knows> ?o . }`)
	res, _, err := Query(q, st, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Morsels != 0 || res.Workers != 0 {
		t.Fatalf("small input ran parallel: morsels=%d workers=%d", res.Morsels, res.Workers)
	}
	serial, _, err := Query(q, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "small input", res, serial)
}

// TestParallelTokenPool: a dry shared pool degrades a parallel query to
// fewer workers (never blocking, never changing results), and every
// try-acquired token is returned.
func TestParallelTokenPool(t *testing.T) {
	st := buildParallelStore(t, 1500)
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://x/knows> ?o . ?o <http://x/age> ?a . }`)
	serial, _, err := Query(q, st, Options{})
	if err != nil {
		t.Fatal(err)
	}

	pool := NewTokenPool(3)
	// The query's own admission token, as the service would hold it.
	if !pool.TryAcquire() {
		t.Fatal("fresh pool refused a token")
	}
	res, _, err := Query(q, st, Options{Parallelism: 8, MorselSize: 64, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "pooled", res, serial)
	if res.Workers > 3 {
		t.Fatalf("used %d workers with only 2 spare tokens (own goroutine + 2)", res.Workers)
	}
	if pool.InUse() != 1 {
		t.Fatalf("pool holds %d tokens after the run, want 1 (the admission token)", pool.InUse())
	}
	pool.Release()

	// Exhausted pool: the pipeline still completes on its own goroutine.
	small := NewTokenPool(1)
	if !small.TryAcquire() {
		t.Fatal("fresh pool refused a token")
	}
	res, _, err = Query(q, st, Options{Parallelism: 8, MorselSize: 64, Pool: small})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "dry pool", res, serial)
	if res.Workers != 1 {
		t.Fatalf("dry pool ran %d workers, want 1", res.Workers)
	}
	small.Release()
	if small.InUse() != 0 {
		t.Fatalf("pool holds %d tokens after release", small.InUse())
	}
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
	if _, err := ex.hashJoin(l, r, sharedCols(l.vars, r.vars)); !errors.Is(err, context.Canceled) {
		t.Fatalf("hash join with cancelled ctx: err = %v, want Canceled", err)
	}
	// Sanity: a join of the same shape (but bounded fanout) completes under
	// a live context.
	ex = &executor{st: st}
	out, err := ex.hashJoin(
		bigRelation([]sparql.Var{"a", "b"}, 5000, 5000),
		bigRelation([]sparql.Var{"a", "c"}, 5000, 5000),
		[][2]int{{0, 0}})
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
	if _, err := ex.crossProduct(l, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("cross product with cancelled ctx: err = %v, want Canceled", err)
	}
}

// TestOrderSortCancels: ORDER BY over a large buffered input aborts
// mid-sort through the comparator poll.
func TestOrderSortCancels(t *testing.T) {
	st := buildParallelStore(t, 4000)
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

// TestParallelHashProbeMatchesSerial exercises the build-once/probe-in-
// parallel path of the hash join kernel directly against the serial kernel.
func TestParallelHashProbeMatchesSerial(t *testing.T) {
	st := buildStreamStore(t)
	l := bigRelation([]sparql.Var{"a", "b"}, 2000, 100)
	r := bigRelation([]sparql.Var{"a", "c"}, 30000, 100)
	serialEx := &executor{st: st}
	want, err := serialEx.hashJoin(l, r, sharedCols(l.vars, r.vars))
	if err != nil {
		t.Fatal(err)
	}
	parEx := &executor{st: st, opts: Options{Parallelism: 8, MorselSize: 512}}
	got, err := parEx.hashJoin(l, r, sharedCols(l.vars, r.vars))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel probe output (%d rows) differs from serial (%d rows)", got.n, want.n)
	}
	if parEx.work != serialEx.work || parEx.cout != serialEx.cout || parEx.scan != serialEx.scan {
		t.Fatalf("accounting differs: work %v vs %v, cout %v vs %v, scan %d vs %d",
			parEx.work, serialEx.work, parEx.cout, serialEx.cout, parEx.scan, serialEx.scan)
	}
	if parEx.morsels == 0 || parEx.workers < 2 {
		t.Fatalf("parallel probe did not run parallel: morsels=%d workers=%d", parEx.morsels, parEx.workers)
	}
}

// TestParallelCancellation: a parallel pipeline aborts with the context's
// error when the client drops mid-run.
func TestParallelCancellation(t *testing.T) {
	st := buildParallelStore(t, 3000)
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://x/knows> ?o . ?o <http://x/age> ?a . }`)
	c, p := compileAndPlan(t, q, st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, c, p, st, Options{Parallelism: 8, MorselSize: 64})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
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
