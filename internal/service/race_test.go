package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/snb"
	"repro/internal/sparql"
	"repro/internal/store"
)

// raceWorkItem is one (template, binding) pair of the mixed workload.
type raceWorkItem struct {
	name string
	prep *Prepared
	bind sparql.Binding
	key  string
}

// buildMixedWorkload prepares every BSBM and SNB template on svc and
// samples bindings for each from the shared store's actual domains.
func buildMixedWorkload(t *testing.T, svc *Service, st *store.Store, perTemplate int) []raceWorkItem {
	t.Helper()
	templates := []struct {
		name string
		text string
	}{
		{"bsbm-q1", bsbm.QueryQ1Text},
		{"bsbm-q2", bsbm.QueryQ2Text},
		{"bsbm-q3", bsbm.QueryQ3Text},
		{"bsbm-q4", bsbm.QueryQ4Text},
		{"snb-q1", snb.QueryQ1Text},
		{"snb-q2", snb.QueryQ2Text},
		{"snb-q3", snb.QueryQ3Text},
	}
	var items []raceWorkItem
	for ti, tm := range templates {
		p, err := svc.Prepare(tm.name, tm.text)
		if err != nil {
			t.Fatalf("%s: %v", tm.name, err)
		}
		dom, err := core.ExtractDomain(p.tmpl, st)
		if err != nil {
			t.Fatalf("%s: %v", tm.name, err)
		}
		for bi, b := range core.NewUniformSampler(dom, int64(100+ti)).Sample(perTemplate) {
			items = append(items, raceWorkItem{
				name: tm.name,
				prep: p,
				bind: b,
				key:  fmt.Sprintf("%s#%d", tm.name, bi),
			})
		}
	}
	return items
}

// canonical renders an outcome into one comparable string: plan signature,
// accounting and every decoded row.
func canonical(out *Outcome) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sig=%s cout=%v work=%v scanned=%d rows=%d\n",
		out.Plan.Signature, out.Result.Cout, out.Result.Work, out.Result.Scanned, len(out.Result.Rows))
	for _, row := range out.DecodedRows() {
		sb.WriteString(strings.Join(row, "\t"))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestConcurrentExecutionMatchesSerial runs the mixed BSBM/SNB workload
// from many goroutines against one shared store and plan cache (run it
// under -race) and asserts every result is byte-identical to the serial
// reference execution.
func TestConcurrentExecutionMatchesSerial(t *testing.T) {
	st := buildMixedStore(t)
	svc := New(st, "", Options{Workers: 4, QueueDepth: 1 << 16})
	items := buildMixedWorkload(t, svc, st, 5)

	// Serial reference, through the very same service path.
	want := make(map[string]string, len(items))
	for _, it := range items {
		out, err := svc.Execute(context.Background(), it.prep, it.bind)
		if err != nil {
			t.Fatalf("serial %s: %v", it.key, err)
		}
		want[it.key] = canonical(out)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the workload from a different offset so
			// cache hits, misses and evictions interleave across templates.
			for i := range items {
				it := items[(i+g*7)%len(items)]
				out, err := svc.Execute(context.Background(), it.prep, it.bind)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d %s: %v", g, it.key, err)
					return
				}
				if got := canonical(out); got != want[it.key] {
					errs <- fmt.Errorf("goroutine %d %s: result differs from serial\ngot:\n%s\nwant:\n%s",
						g, it.key, got, want[it.key])
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

	stats := svc.Stats()
	if stats.Cache.Hits == 0 {
		t.Fatal("concurrent run should produce plan-cache hits")
	}
	if stats.Pool.Rejected != 0 {
		t.Fatalf("queue was sized to never reject, got %d rejections", stats.Pool.Rejected)
	}
}

// TestConcurrentExecutionWithSwap hammers the service while snapshots are
// swapped underneath: every response must be internally consistent with
// the generation it reports.
func TestConcurrentExecutionWithSwap(t *testing.T) {
	stA := buildTinyStore(t) // 3 knows-edges
	b := store.NewBuilder()
	if err := b.Add(rdf.NewTriple(rdf.NewIRI("http://x/dave"), rdf.NewIRI("http://x/knows"), rdf.NewIRI("http://x/erin"))); err != nil {
		t.Fatal(err)
	}
	stB := b.Build() // 1 knows-edge

	svc := New(stA, "a", Options{Workers: 4, QueueDepth: 1 << 16})
	p, err := svc.Prepare("all", `SELECT ?s ?o WHERE { ?s <http://x/knows> ?o . } ORDER BY ?s ?o`)
	if err != nil {
		t.Fatal(err)
	}
	wantByGenParity := map[uint64]int{0: 1, 1: 3} // even gens: stB (1 row), odd: stA (3 rows)

	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				out, err := svc.Execute(context.Background(), p, nil)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if want := wantByGenParity[out.Generation%2]; len(out.Result.Rows) != want {
					errs <- fmt.Errorf("goroutine %d: generation %d returned %d rows, want %d",
						g, out.Generation, len(out.Result.Rows), want)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := stB
		for i := 0; i < 50; i++ {
			svc.Swap(next, "swap")
			if next == stB {
				next = stA
			} else {
				next = stB
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBigScanMixedWorkloadRace runs a large scan-heavy query concurrently
// with the mixed BSBM/SNB workload against one shared store, buffer pool
// and admission pool (run under -race). Exec options use exact accounting
// (no EarlyStop), so every canonical result — rows, row order, Cout, Work,
// Scanned — must be byte-identical to the same request run alone, and no
// admission token may leak.
func TestBigScanMixedWorkloadRace(t *testing.T) {
	st := buildMixedStore(t)
	svc := New(st, "", Options{Workers: 4, QueueDepth: 1 << 16})
	items := buildMixedWorkload(t, svc, st, 3)

	const bigQuery = `SELECT * WHERE { ?s ?p ?o . }`

	// Reference canonicals, each request run alone.
	want := make(map[string]string, len(items))
	for _, it := range items {
		out, err := svc.Execute(context.Background(), it.prep, it.bind)
		if err != nil {
			t.Fatalf("reference %s: %v", it.key, err)
		}
		want[it.key] = canonical(out)
	}
	refBig, err := svc.Query(context.Background(), bigQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBig := canonical(refBig)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range items {
				it := items[(i+g*5)%len(items)]
				out, err := svc.Execute(context.Background(), it.prep, it.bind)
				if err != nil {
					errs <- fmt.Errorf("mixed goroutine %d %s: %v", g, it.key, err)
					return
				}
				if got := canonical(out); got != want[it.key] {
					errs <- fmt.Errorf("mixed goroutine %d %s: result differs from the lone run\ngot:\n%s\nwant:\n%s",
						g, it.key, got, want[it.key])
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				out, err := svc.Query(context.Background(), bigQuery, nil)
				if err != nil {
					errs <- fmt.Errorf("big goroutine %d: %v", g, err)
					return
				}
				if got := canonical(out); got != wantBig {
					errs <- fmt.Errorf("big goroutine %d iteration %d: result differs from the lone run", g, i)
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

	if n := svc.Stats().Pool.TokensInUse; n != 0 {
		t.Fatalf("%d tokens leaked", n)
	}
}
