package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rdf"
	"repro/internal/snb"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/workload"
)

// buildTinyStore builds a small hand-written social graph, cheap enough for
// per-test construction.
func buildTinyStore(t testing.TB) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	iri := rdf.NewIRI
	knows, age := iri("http://x/knows"), iri("http://x/age")
	add(iri("http://x/alice"), knows, iri("http://x/bob"))
	add(iri("http://x/alice"), knows, iri("http://x/carol"))
	add(iri("http://x/bob"), knows, iri("http://x/carol"))
	add(iri("http://x/alice"), age, rdf.NewInteger(30))
	add(iri("http://x/bob"), age, rdf.NewInteger(25))
	add(iri("http://x/carol"), age, rdf.NewInteger(35))
	return b.Build()
}

var (
	mixedOnce  sync.Once
	mixedStore *store.Store
	mixedErr   error
)

// buildMixedStore builds one store holding both the BSBM and SNB test
// datasets, so mixed-family templates run against a single shared store.
func buildMixedStore(t testing.TB) *store.Store {
	t.Helper()
	mixedOnce.Do(func() {
		b := store.NewBuilder()
		emit := func(tr rdf.Triple) error { return b.Add(tr) }
		if _, err := bsbm.Generate(bsbm.TestConfig(), emit); err != nil {
			mixedErr = err
			return
		}
		if _, err := snb.Generate(snb.TestConfig(), emit); err != nil {
			mixedErr = err
			return
		}
		mixedStore = b.Build()
	})
	if mixedErr != nil {
		t.Fatal(mixedErr)
	}
	return mixedStore
}

func TestPrepareAndExecute(t *testing.T) {
	svc := New(buildTinyStore(t), "", Options{})
	p, err := svc.Prepare("friends", `SELECT ?f WHERE { %who <http://x/knows> ?f . } ORDER BY ?f`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Params) != 1 || p.Params[0] != "who" {
		t.Fatalf("params = %v", p.Params)
	}
	b := sparql.Binding{"who": rdf.NewIRI("http://x/alice")}
	out, err := svc.Execute(context.Background(), p, b)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.DecodedRows()
	if len(rows) != 2 || rows[0][0] != "<http://x/bob>" || rows[1][0] != "<http://x/carol>" {
		t.Fatalf("rows = %v", rows)
	}
	if out.CacheHit {
		t.Fatal("first execution cannot be a cache hit")
	}
	// Same binding again: plan cache hit, identical rows.
	out2, err := svc.Execute(context.Background(), p, b)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.CacheHit {
		t.Fatal("second execution should hit the plan cache")
	}
	if got := out2.DecodedRows(); len(got) != 2 || got[0][0] != rows[0][0] {
		t.Fatalf("cache-hit rows differ: %v", got)
	}
	st := svc.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache counters = %+v", st.Cache)
	}
	if st.Requests["execute"].Count != 2 {
		t.Fatalf("request counts = %+v", st.Requests)
	}
}

func TestQueryOneShotSharesCacheWithPrepared(t *testing.T) {
	svc := New(buildTinyStore(t), "", Options{})
	text := `SELECT ?f WHERE { %who <http://x/knows> ?f . }`
	p, err := svc.Prepare("q", text)
	if err != nil {
		t.Fatal(err)
	}
	b := sparql.Binding{"who": rdf.NewIRI("http://x/alice")}
	if _, err := svc.Execute(context.Background(), p, b); err != nil {
		t.Fatal(err)
	}
	// The ad-hoc path canonicalizes the text, so the same template with
	// different whitespace hits the same cache entry.
	out, err := svc.Query(context.Background(), "SELECT ?f WHERE {\n\n  %who <http://x/knows> ?f .\n}", b)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Fatal("one-shot query should share the prepared template's cache entry")
	}
}

func TestExecuteBatch(t *testing.T) {
	svc := New(buildTinyStore(t), "", Options{})
	p, err := svc.Prepare("friends", `SELECT ?f WHERE { %who <http://x/knows> ?f . } ORDER BY ?f`)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := svc.ExecuteBatch(context.Background(), p, []sparql.Binding{
		{"who": rdf.NewIRI("http://x/alice")},
		{"who": rdf.NewIRI("http://x/bob")},
		{"who": rdf.NewIRI("http://x/alice")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	if n := len(outs[0].Result.Rows); n != 2 {
		t.Fatalf("alice rows = %d", n)
	}
	if n := len(outs[1].Result.Rows); n != 1 {
		t.Fatalf("bob rows = %d", n)
	}
	if !outs[2].CacheHit {
		t.Fatal("repeated batch binding should hit the cache")
	}
}

func TestInputErrors(t *testing.T) {
	svc := New(buildTinyStore(t), "", Options{})
	if _, err := svc.Prepare("bad", "SELECT WHERE {"); !IsInputError(err) {
		t.Fatalf("parse error not classified as input error: %v", err)
	}
	p, err := svc.Prepare("q", `SELECT ?f WHERE { %who <http://x/knows> ?f . }`)
	if err != nil {
		t.Fatal(err)
	}
	// Missing binding.
	if _, err := svc.Execute(context.Background(), p, nil); !IsInputError(err) {
		t.Fatalf("unbound parameter not classified as input error: %v", err)
	}
	// Failed requests are visible in the stats, not silently dropped.
	if rs := svc.Stats().Requests["execute"]; rs.Count != 1 || rs.Errors != 1 {
		t.Fatalf("error not recorded in request stats: %+v", rs)
	}
}

func TestAdmissionControl(t *testing.T) {
	svc := New(buildTinyStore(t), "", Options{Workers: 1, QueueDepth: -1})
	// Occupy the single worker slot.
	release, err := svc.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p, err := svc.Prepare("q", `SELECT * WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Execute(context.Background(), p, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded with no queue, got %v", err)
	}
	if got := svc.Stats().Pool.Rejected; got != 1 {
		t.Fatalf("rejected = %d", got)
	}
	release()
	if _, err := svc.Execute(context.Background(), p, nil); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestAdmissionQueueAndCancel(t *testing.T) {
	svc := New(buildTinyStore(t), "", Options{Workers: 1, QueueDepth: 1})
	release, err := svc.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One request fits in the queue and waits...
	queued := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		r, err := svc.admit(ctx)
		if err == nil {
			r()
		}
		queued <- err
	}()
	// ...wait until it is actually queued, then a second one is rejected.
	for svc.queued.Load() == 0 {
		runtime.Gosched()
	}
	if _, err := svc.admit(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue overflow: want ErrOverloaded, got %v", err)
	}
	// The queued request honors its context.
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued request: want context.Canceled, got %v", err)
	}
	release()
}

// TestAdmissionWaitCounted: a request that queues for a token and is then
// admitted runs to completion and is counted in Stats().Pool.TokenWaits
// and TokenWaitMs; one admitted at once is not.
func TestAdmissionWaitCounted(t *testing.T) {
	svc := New(buildTinyStore(t), "", Options{Workers: 1, QueueDepth: 1})
	p, err := svc.Prepare("q", `SELECT * WHERE { ?s ?p ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := svc.Execute(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pool := svc.Stats().Pool; pool.TokenWaits != 0 || pool.TokenWaitMs != 0 {
		t.Fatalf("an uncontended request was counted as a wait: %+v", pool)
	}
	release, err := svc.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		out, err := svc.Execute(context.Background(), p, nil)
		if err == nil && len(out.Result.Rows) != len(alone.Result.Rows) {
			err = fmt.Errorf("queued request returned %d rows, want %d", len(out.Result.Rows), len(alone.Result.Rows))
		}
		done <- err
	}()
	for svc.queued.Load() == 0 {
		runtime.Gosched()
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("queued request: %v", err)
	}
	pool := svc.Stats().Pool
	if pool.TokenWaits != 1 || pool.TokenWaitMs <= 0 {
		t.Fatalf("queued-then-admitted request not counted: %+v", pool)
	}
	if pool.Queued != 0 || pool.InFlight != 0 || pool.TokensInUse != 0 {
		t.Fatalf("pool not drained: %+v", pool)
	}
}

func TestSnapshotSwap(t *testing.T) {
	st1 := buildTinyStore(t)
	b := store.NewBuilder()
	if err := b.Add(rdf.NewTriple(rdf.NewIRI("http://x/dave"), rdf.NewIRI("http://x/knows"), rdf.NewIRI("http://x/erin"))); err != nil {
		t.Fatal(err)
	}
	st2 := b.Build()

	svc := New(st1, "", Options{})
	p, err := svc.Prepare("all", `SELECT ?s ?o WHERE { ?s <http://x/knows> ?o . } ORDER BY ?s ?o`)
	if err != nil {
		t.Fatal(err)
	}
	out1, err := svc.Execute(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Generation != 1 || len(out1.Result.Rows) != 3 {
		t.Fatalf("gen1: generation=%d rows=%d", out1.Generation, len(out1.Result.Rows))
	}
	if gen := svc.Swap(st2, "v2"); gen != 2 {
		t.Fatalf("swap generation = %d", gen)
	}
	out2, err := svc.Execute(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Generation != 2 || len(out2.Result.Rows) != 1 {
		t.Fatalf("gen2: generation=%d rows=%d", out2.Generation, len(out2.Result.Rows))
	}
	if got := out2.DecodedRows()[0][0]; got != "<http://x/dave>" {
		t.Fatalf("gen2 rows = %v", out2.DecodedRows())
	}
	// The pre-swap outcome still decodes correctly through its own pinned
	// snapshot, even though the service moved on.
	if got := out1.DecodedRows()[0][0]; got != "<http://x/alice>" {
		t.Fatalf("pinned outcome decodes wrong: %v", out1.DecodedRows())
	}
	// The new generation's first execution is a miss (fresh cache), the
	// second a hit.
	if out2.CacheHit {
		t.Fatal("fresh cache after swap cannot hit")
	}
	out3, err := svc.Execute(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out3.CacheHit {
		t.Fatal("second post-swap execution should hit")
	}
}

func TestPlanCacheEviction(t *testing.T) {
	svc := New(buildTinyStore(t), "", Options{PlanCacheSize: 2})
	p, err := svc.Prepare("q", `SELECT ?f WHERE { %who <http://x/knows> ?f . }`)
	if err != nil {
		t.Fatal(err)
	}
	whos := []string{"http://x/alice", "http://x/bob", "http://x/carol"}
	for _, w := range whos {
		if _, err := svc.Execute(context.Background(), p, sparql.Binding{"who": rdf.NewIRI(w)}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Cache.Size != 2 || st.Cache.Evictions != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	// alice was evicted (LRU); bob and carol still hit.
	out, err := svc.Execute(context.Background(), p, sparql.Binding{"who": rdf.NewIRI("http://x/carol")})
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Fatal("carol should still be cached")
	}
	out, err = svc.Execute(context.Background(), p, sparql.Binding{"who": rdf.NewIRI("http://x/alice")})
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Fatal("alice should have been evicted")
	}
}

// TestWorkloadThroughService drives a BSBM workload through the service
// path — one prepared template, Execute per binding — and checks the
// measurements are identical (up to wall-clock) to the direct
// workload.Runner path with the same exec options.
func TestWorkloadThroughService(t *testing.T) {
	st := buildMixedStore(t)
	tmpl := bsbm.Q4()
	dom, err := core.ExtractDomain(tmpl, st)
	if err != nil {
		t.Fatal(err)
	}
	bindings := core.NewUniformSampler(dom, 7).Sample(6)

	direct := &workload.Runner{Store: st, Opts: exec.Options{}}
	want, err := direct.Run(tmpl, bindings)
	if err != nil {
		t.Fatal(err)
	}

	// Same exec options (EarlyStop off) so accounting is comparable.
	svc := New(st, "", Options{Exec: exec.Options{}})
	p, err := svc.Prepare("q4", tmpl.String())
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bindings {
		out, err := svc.Execute(context.Background(), p, b)
		if err != nil {
			t.Fatalf("binding %d: %v", i, err)
		}
		got := workload.Measurement{
			Binding:   b,
			Work:      out.Result.Work,
			Cout:      out.Result.Cout,
			EstCost:   out.Plan.EstCost,
			Rows:      len(out.Result.Rows),
			Signature: out.Plan.Signature,
		}
		out.Close()
		if got.Work != want[i].Work || got.Cout != want[i].Cout ||
			got.Rows != want[i].Rows || got.Signature != want[i].Signature ||
			got.EstCost != want[i].EstCost {
			t.Fatalf("measurement %d differs: service %+v vs direct %+v", i, got, want[i])
		}
	}
}
