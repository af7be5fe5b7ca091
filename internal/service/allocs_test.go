package service

import (
	"context"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/sparql"
	"repro/internal/store"
)

var (
	benchFixtureOnce  sync.Once
	benchFixtureStore *store.Store
	benchFixtureErr   error
)

// benchFixture is the benchmark's BSBM fixture — the default generator
// with 10 000 products — at which the curated Q4 classes run as
// index-probe chains and Q2 fills its LIMIT.
func benchFixture(t testing.TB) *store.Store {
	t.Helper()
	benchFixtureOnce.Do(func() {
		cfg := bsbm.DefaultConfig()
		cfg.Products = 10000
		benchFixtureStore, _, benchFixtureErr = bsbm.BuildStore(cfg)
	})
	if benchFixtureErr != nil {
		t.Fatal(benchFixtureErr)
	}
	return benchFixtureStore
}

// preparedRun returns a function that executes p once over bindings
// through ExecuteBatch and closes the outcomes, after one warm-up call
// that fills the plan cache and grows the pooled execution buffers.
func preparedRun(t testing.TB, svc *Service, p *Prepared, bindings ...sparql.Binding) func() {
	t.Helper()
	run := func() {
		outs, err := svc.ExecuteBatch(context.Background(), p, bindings)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			o.Close()
		}
	}
	run()
	return run
}

// TestExecutePreparedAllocs is the hard allocation gate of a warm prepared
// request: allocations per ExecuteBatch are a deterministic counter, so
// they are gated at the measured value plus a small margin. The margin
// absorbs a pooled buffer lost to a GC cycle, which comes back in a few
// appends; anything per row or per batch would show as hundreds.
func TestExecutePreparedAllocs(t *testing.T) {
	st := benchFixture(t)
	svc := New(st, "", DefaultOptions())
	q4, err := svc.Prepare("q4", bsbm.QueryQ4Text)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := svc.Prepare("q2", bsbm.QueryQ2Text)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		p       *Prepared
		b       sparql.Binding
		allowed float64
	}{
		{"q4 probe chain", q4, sparql.Binding{"ProductType": bsbm.TypeIRI(21)}, 32 + 4},
		{"q2 limit", q2, sparql.Binding{"Product": bsbm.ProductIRI(0)}, 31 + 4},
	} {
		got := testing.AllocsPerRun(50, preparedRun(t, svc, c.p, c.b))
		if got > c.allowed {
			t.Errorf("%s: a warm prepared execution allocates %.0f times, gate %.0f", c.name, got, c.allowed)
		}
	}
}

// TestExecuteAllocsFlatInIntermediateRows: allocations do not grow with
// the intermediate rows a query streams. With draining accounting a LIMIT
// pulls its whole input, so two Q4 bindings under LIMIT 100 return the
// same 100 rows while one joins about 15 times the rows of the other,
// through three times the batches.
func TestExecuteAllocsFlatInIntermediateRows(t *testing.T) {
	svc := New(benchFixture(t), "", Options{})
	p, err := svc.Prepare("q4limit", bsbm.QueryQ4Text+" LIMIT 100")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(ty int) (float64, float64) {
		run := preparedRun(t, svc, p, sparql.Binding{"ProductType": bsbm.TypeIRI(ty)})
		outs, err := svc.ExecuteBatch(context.Background(), p, []sparql.Binding{{"ProductType": bsbm.TypeIRI(ty)}})
		if err != nil {
			t.Fatal(err)
		}
		cout := outs[0].Result.Cout
		outs[0].Close()
		return testing.AllocsPerRun(50, run), cout
	}
	small, smallCout := allocs(21)
	large, largeCout := allocs(1)
	if largeCout < 10*smallCout {
		t.Fatalf("fixture drift: Cout %.0f vs %.0f, want a 10x spread", largeCout, smallCout)
	}
	if large > small+4 {
		t.Fatalf("%.0f allocs at Cout %.0f, %.0f at Cout %.0f", large, largeCout, small, smallCout)
	}
}

// TestMetricsGCCounters: /metrics exports the runtime's GC cycle and heap
// allocation counters, and both only grow.
func TestMetricsGCCounters(t *testing.T) {
	srv := httptest.NewServer(New(buildTinyStore(t), "", Options{}).Handler())
	defer srv.Close()
	names := []string{"repro_go_gc_cycles_total", "repro_go_heap_allocs_bytes_total"}
	scrape := func() []float64 {
		body := fetchText(t, srv.URL+"/metrics")
		vals := make([]float64, len(names))
		for i, name := range names {
			vals[i] = metricValue(t, body, name, "counter")
		}
		return vals
	}
	before := scrape()
	sink = make([]byte, 1<<20)
	runtime.GC()
	after := scrape()
	for i, name := range names {
		if after[i] <= before[i] {
			t.Errorf("%s went from %v to %v across a GC and a 1 MiB allocation", name, before[i], after[i])
		}
	}
}

var sink []byte

// metricValue is the value of the unlabelled metric name of type typ in a
// /metrics exposition.
func metricValue(t *testing.T, body, name, typ string) float64 {
	t.Helper()
	if !strings.Contains(body, "# TYPE "+name+" "+typ+"\n") {
		t.Fatalf("/metrics has no %s %s", typ, name)
	}
	_, after, _ := strings.Cut(body, "\n"+name+" ")
	line, _, _ := strings.Cut(after, "\n")
	v, err := strconv.ParseFloat(line, 64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

// TestMetricsRenderTableBytes: the dictionary's render table costs nothing
// until a result is written as JSON, and its size is then on /metrics and
// /stats.
func TestMetricsRenderTableBytes(t *testing.T) {
	_, srv := startTestServer(t, Options{})
	const name = "repro_dict_render_table_bytes"
	if v := metricValue(t, fetchText(t, srv.URL+"/metrics"), name, "gauge"); v != 0 {
		t.Fatalf("%s = %v after start, want 0", name, v)
	}
	q := `SELECT ?f WHERE { %who <http://x/knows> ?f . }`
	if resp, body := postJSON(t, srv.URL+"/prepare", prepareRequest{Name: "friends", Query: q}); resp.StatusCode != 200 {
		t.Fatalf("prepare status %d: %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, srv.URL+"/execute", executeRequest{
		Name:     "friends",
		Bindings: map[string]string{"who": "<http://x/alice>"},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("execute status %d: %s", resp.StatusCode, body)
	}
	v := metricValue(t, fetchText(t, srv.URL+"/metrics"), name, "gauge")
	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	if v <= 0 || float64(st.Store.RenderTableBytes) != v {
		t.Fatalf("after /execute: %s = %v, /stats render_table_bytes = %d", name, v, st.Store.RenderTableBytes)
	}
}
