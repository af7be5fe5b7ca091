// Observability: trace a query's execution span by span, then watch the
// same telemetry from the service side — EXPLAIN ANALYZE over HTTP, the
// 1-in-N trace sampler feeding /trace/recent, and the Prometheus
// exposition on /metrics.
//
// The standalone binaries expose the same features:
//
//	queryrun -data graph.nt -query q.rq -analyze
//	served -data graph.nt -trace-sample 100 -slow-query-ms 250 -pprof-addr 127.0.0.1:6060
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/service"
	"repro/internal/sparql"
	"repro/internal/store"
)

func main() {
	st := catalog(60)

	// --- Direct tracing: attach a collector to one execution -----------
	//
	// Options.Trace is nil by default and the engines then build the
	// exact pre-trace operator tree (zero overhead, asserted by tests);
	// with a collector every operator is wrapped and records wall time,
	// rows/batches and the exact Cout/Work/Scanned deltas of its subtree.
	q := sparql.MustParse(`SELECT ?offer ?price WHERE {
	  ?p a <http://ex/Gadget> .
	  ?offer <http://ex/product> ?p .
	  ?offer <http://ex/price> ?price .
	}`)
	capture := &obs.Capture{}
	res, _, err := exec.Query(q, st, exec.Options{Trace: capture})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("direct run: %d rows (Cout %.0f, work %.0f, scanned %d)\n",
		len(res.Rows), res.Cout, res.Work, res.Scanned)
	fmt.Println("EXPLAIN ANALYZE:")
	fmt.Print(obs.Render(capture.Root))

	// The span tree accounts for the run exactly: the root's inclusive
	// totals equal the Result's, and per-operator exclusive shares sum
	// back to them.
	cout, work, scanned := obs.Sum(capture.Root)
	fmt.Printf("span accounting: cout=%.0f work=%.0f scanned=%d (exact match: %v)\n\n",
		cout, work, scanned,
		cout == res.Cout && work == res.Work && scanned == int64(res.Scanned))

	// --- Service-side: sampling, /trace/recent, /metrics ---------------
	opts := service.DefaultOptions()
	opts.TraceSample = 2 // trace every 2nd query
	opts.TraceRecent = 16
	svc := service.New(st, "catalog", opts)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	post(srv.URL+"/prepare", `{
	  "name": "offers",
	  "query": "SELECT ?offer ?price WHERE { ?p a %type . ?offer <http://ex/product> ?p . ?offer <http://ex/price> ?price . }"
	}`, &struct{}{})
	for i := 0; i < 6; i++ {
		post(srv.URL+"/execute", `{"name": "offers", "bindings": {"type": "<http://ex/Gadget>"}}`, &struct{}{})
	}

	// explain=analyze returns the rendered listing (and span tree) with
	// the results, and retains the trace regardless of sampling.
	var analyzed struct {
		RowCount       int    `json:"row_count"`
		ExplainAnalyze string `json:"explain_analyze"`
	}
	post(srv.URL+"/execute", `{"name": "offers", "bindings": {"type": "<http://ex/Widget>"}, "explain": "analyze"}`, &analyzed)
	fmt.Printf("HTTP explain=analyze: %d rows, first line: %s\n",
		analyzed.RowCount, strings.SplitN(analyzed.ExplainAnalyze, "\n", 2)[0])

	// /trace/recent holds the sampled and analyzed runs, newest first.
	var recent struct {
		Total  uint64            `json:"total"`
		Traces []*obs.QueryTrace `json:"traces"`
	}
	get(srv.URL+"/trace/recent?n=3", &recent)
	fmt.Printf("/trace/recent: %d retained; newest: endpoint=%s template=%s sampled=%v rows=%d\n",
		recent.Total, recent.Traces[0].Endpoint, recent.Traces[0].Template,
		recent.Traces[0].Sampled, recent.Traces[0].Rows)

	// /metrics maps every /stats counter to the Prometheus text format.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "repro_traces_total") ||
			strings.HasPrefix(line, "repro_plan_cache_hits_total") ||
			strings.HasPrefix(line, `repro_requests_total{endpoint="execute"}`) {
			fmt.Println("metrics:", line)
		}
	}
}

// catalog builds a store with n products, half of them Gadgets, each with
// two priced offers.
func catalog(n int) *store.Store {
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			log.Fatal(err)
		}
	}
	typ := rdf.NewIRI(rdf.RDFType)
	gadget := rdf.NewIRI("http://ex/Gadget")
	widget := rdf.NewIRI("http://ex/Widget")
	product := rdf.NewIRI("http://ex/product")
	price := rdf.NewIRI("http://ex/price")
	for i := 0; i < n; i++ {
		p := rdf.NewIRI(fmt.Sprintf("http://ex/prod%d", i))
		if i%2 == 0 {
			add(p, typ, gadget)
		} else {
			add(p, typ, widget)
		}
		for k := 0; k < 2; k++ {
			o := rdf.NewIRI(fmt.Sprintf("http://ex/offer%d_%d", i, k))
			add(o, product, p)
			add(o, price, rdf.NewInteger(int64(10+i+k)))
		}
	}
	return b.Build()
}

func post(url, body string, dst any) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		log.Fatal(err)
	}
}

func get(url string, dst any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		log.Fatal(err)
	}
}
