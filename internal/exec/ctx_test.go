package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

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
