package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// TestPoisonedBuffersKeepFrozenResults runs the frozen corpus with every
// released buffer overwritten by a sentinel, and checks every result only
// after all runs are done: a
// result, batch or relation read after its buffers went back to the pool
// would show the sentinel (or a -1 selection index) instead of its rows.
func TestPoisonedBuffersKeepFrozenResults(t *testing.T) {
	poisonBuffers(t)
	type ran struct {
		key string
		st  *store.Store
		res *Result
	}
	var runs []ran
	corpus := func(st *store.Store, queries []string, key func(i int) string) {
		for i, src := range queries {
			runs = append(runs, ran{key(i), st, run(t, st, src, Options{})})
		}
	}
	byIndex := func(prefix string) func(int) string {
		return func(i int) string { return fmt.Sprintf("%s/%d/hash", prefix, i) }
	}
	corpus(buildStreamStore(t), equivalenceQueries, byIndex("equivalence"))
	corpus(buildLargeStore(t), largeQueries, byIndex("large"))
	social := buildSocialStore(t)
	corpus(social, columnarQueries, byIndex("columnar"))
	algebra := make([]string, len(algebraQueries))
	for i, q := range algebraQueries {
		algebra[i] = q.src
	}
	corpus(social, algebra, func(i int) string { return "algebra/" + algebraQueries[i].name })
	for _, r := range runs {
		assertFrozen(t, r.key, r.st, r.res)
	}
}

// TestConcurrentPooledBuffers: many goroutines run the BSBM templates over
// the one process-wide buffer pool while about a third of the runs are
// cancelled at a random batch. Every run that completes must equal its
// reference — rows, row order, Cout, Work, Scanned — so no run ever reads a
// buffer another run (or a cancelled one) released.
func TestConcurrentPooledBuffers(t *testing.T) {
	st, _, err := bsbm.BuildStore(bsbm.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		name string
		c    *plan.Compiled
		p    *plan.Plan
		ref  *Result
	}
	var jobs []job
	add := func(name string, q *sparql.Query, b sparql.Binding) {
		bound, err := q.Bind(b)
		if err != nil {
			t.Fatal(err)
		}
		c, p := compileAndPlan(t, bound, st)
		ref, err := Run(c, p, st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{name, c, p, ref})
	}
	for _, ty := range []int{1, 4, 13} {
		pt := sparql.Binding{"ProductType": bsbm.TypeIRI(ty)}
		add(fmt.Sprintf("q4/type%d", ty), bsbm.Q4(), pt)
		add(fmt.Sprintf("q5/type%d", ty), bsbm.Q5(), pt)
		add(fmt.Sprintf("q6/type%d", ty), bsbm.Q6(), pt)
		add(fmt.Sprintf("q1/type%d", ty), bsbm.Q1(), sparql.Binding{"ProductType": bsbm.TypeIRI(ty), "Country": bsbm.CountryIRI("DE")})
		add(fmt.Sprintf("q3/type%d", ty), bsbm.Q3(), sparql.Binding{"ProductType": bsbm.TypeIRI(ty),
			"Feature": bsbm.FeatureIRI(ty % 6), "Country": bsbm.CountryIRI("US")})
	}
	for _, pr := range []int{1, 77} {
		add(fmt.Sprintf("q2/product%d", pr), bsbm.Q2(), sparql.Binding{"Product": bsbm.ProductIRI(pr)})
	}
	const goroutines, iters = 8, 12
	var completed, cancelled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				j := jobs[rng.Intn(len(jobs))]
				ctx := context.Background()
				if rng.Intn(3) == 0 {
					ctx = &countdownCtx{Context: ctx, after: rng.Intn(30)}
				}
				res, err := RunCtx(ctx, j.c, j.p, st, Options{})
				if errors.Is(err, context.Canceled) {
					cancelled.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", j.name, err)
					return
				}
				completed.Add(1)
				if diff := resultDiff(res, j.ref); diff != "" {
					t.Errorf("%s: %s", j.name, diff)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if completed.Load() == 0 || cancelled.Load() == 0 {
		t.Fatalf("%d runs completed, %d cancelled: want both", completed.Load(), cancelled.Load())
	}
}

// resultDiff describes how got differs from want in rows, row order or the
// Cout/Work/Scanned accounting ("" when it does not).
func resultDiff(got, want *Result) string {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				return fmt.Sprintf("row %d col %d: %d, want %d", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	if got.Cout != want.Cout || got.Work != want.Work || got.Scanned != want.Scanned {
		return fmt.Sprintf("accounting (cout=%v work=%v scanned=%d), want (cout=%v work=%v scanned=%d)",
			got.Cout, got.Work, got.Scanned, want.Cout, want.Work, want.Scanned)
	}
	return ""
}

// wideRelation is a relation over vars whose first five columns draw from
// small domains — so many rows agree on four columns and differ on the
// fifth — and whose last column numbers the rows.
func wideRelation(rng *rand.Rand, vars []sparql.Var, n int) *colRelation {
	rel := &colRelation{vars: vars, cols: make([][]dict.ID, len(vars)), n: n}
	for i := 0; i < n; i++ {
		for j := 0; j < 5; j++ {
			rel.cols[j] = append(rel.cols[j], dict.ID(1+rng.Intn(2+j/4)))
		}
		rel.cols[5] = append(rel.cols[5], dict.ID(1000+i))
	}
	return rel
}

// TestJoinTableWideKeys: hash and left joins on five shared variables —
// one more than fits a fixed four-column key — equal a nested-loop
// reference row for row.
func TestJoinTableWideKeys(t *testing.T) {
	st := buildStreamStore(t)
	rng := rand.New(rand.NewSource(5))
	shared := []sparql.Var{"a", "b", "c", "d", "e"}
	l := wideRelation(rng, append(shared[:5:5], "x"), 120)
	r := wideRelation(rng, append(shared[:5:5], "y"), 200)
	matches := func(li, ri int) bool {
		for j := 0; j < 5; j++ {
			if l.cols[j][li] != r.cols[j][ri] {
				return false
			}
		}
		return true
	}
	row := func(li, ri int, y dict.ID) []dict.ID {
		out := make([]dict.ID, 0, 7)
		for j := range l.cols {
			out = append(out, l.cols[j][li])
		}
		return append(out, y)
	}
	// The hash join builds on the smaller side (l) and probes r in order.
	var wantInner [][]dict.ID
	for ri := 0; ri < r.n; ri++ {
		for li := 0; li < l.n; li++ {
			if matches(li, ri) {
				wantInner = append(wantInner, row(li, ri, r.cols[5][ri]))
			}
		}
	}
	// The left join keeps l's order, padding unmatched rows.
	var wantLeft [][]dict.ID
	for li := 0; li < l.n; li++ {
		matched := false
		for ri := 0; ri < r.n; ri++ {
			if matches(li, ri) {
				wantLeft = append(wantLeft, row(li, ri, r.cols[5][ri]))
				matched = true
			}
		}
		if !matched {
			wantLeft = append(wantLeft, row(li, 0, dict.None))
		}
	}
	if len(wantInner) == 0 || len(wantLeft) == l.n {
		t.Fatal("fixture has no matches")
	}
	ex := &executor{st: st}
	inner, err := ex.hashJoin(l, r, sharedCols(l.vars, r.vars))
	if err != nil {
		t.Fatal(err)
	}
	assertRelationRows(t, "hash join", inner, wantInner)
	left, err := ex.leftJoin(l, r)
	if err != nil {
		t.Fatal(err)
	}
	assertRelationRows(t, "left join", left, wantLeft)
}

// assertRelationRows fails unless rel holds exactly want, in order.
func assertRelationRows(t *testing.T, label string, rel *colRelation, want [][]dict.ID) {
	t.Helper()
	if rel.n != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, rel.n, len(want))
	}
	for i, w := range want {
		for j, v := range w {
			if rel.cols[j][i] != v {
				t.Fatalf("%s: row %d col %d = %d, want %d", label, i, j, rel.cols[j][i], v)
			}
		}
	}
}
