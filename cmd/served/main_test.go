package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// scrapeMetrics fetches and parses a Prometheus text exposition without a
// client library: samples maps "name" or `name{labels}` to its value,
// types maps metric name to its # TYPE. The parser also enforces the
// basic format invariants CI relies on: every sample belongs to a typed
// metric family, and histogram buckets are cumulative (non-decreasing in
// emission order per series prefix).
func scrapeMetrics(t *testing.T, url string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples = map[string]float64{}
	types = map[string]string{}
	lastBucket := map[string]float64{} // series prefix -> previous cumulative count
	for ln, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		key, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, raw, err)
		}
		samples[key] = v
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) && types[strings.TrimSuffix(name, suffix)] == "histogram" {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %s has no # TYPE header", ln+1, key)
		}
		if strings.HasSuffix(name, "_bucket") {
			prefix := key[:strings.LastIndexByte(key, ',')+1]
			if v < lastBucket[prefix] {
				t.Fatalf("line %d: bucket %s not cumulative: %v after %v", ln+1, key, v, lastBucket[prefix])
			}
			lastBucket[prefix] = v
		}
	}
	return samples, types
}

func TestServeEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.nt")
	nt := `<http://x/a> <http://x/knows> <http://x/b> .
<http://x/a> <http://x/knows> <http://x/c> .
<http://x/b> <http://x/knows> <http://x/c> .
`
	if err := os.WriteFile(path, []byte(nt), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := service.Load(path, service.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, l, svc) }()
	base := "http://" + l.Addr().String()

	// Health.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// /stats names the one engine; the benchmark harness feeds engine.mode
	// back through service.ParseEngineMode.
	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats service.Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Engine.Mode != "columnar" {
		t.Fatalf("/stats engine = %+v (err %v), want mode columnar", stats.Engine, err)
	}
	if _, err := service.ParseEngineMode(stats.Engine.Mode); err != nil {
		t.Fatal(err)
	}

	// Prepare + execute round trip.
	post := func(url, body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp, m
	}
	resp, _ = post(base+"/prepare", `{"name":"f","query":"SELECT ?x WHERE { %who <http://x/knows> ?x . } ORDER BY ?x"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("prepare status %d", resp.StatusCode)
	}
	resp, m := post(base+"/execute", `{"name":"f","bindings":{"who":"<http://x/a>"}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("execute status %d", resp.StatusCode)
	}
	if rc, ok := m["row_count"].(float64); !ok || rc != 2 {
		t.Fatalf("execute response = %v", m)
	}

	// EXPLAIN ANALYZE over HTTP: the response carries the rendered listing
	// and span tree, and the run is retained for /trace/recent.
	resp, m = post(base+"/execute", `{"name":"f","bindings":{"who":"<http://x/a>"},"explain":"analyze"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("explain=analyze status %d", resp.StatusCode)
	}
	if ea, ok := m["explain_analyze"].(string); !ok || !strings.Contains(ea, "actual:") {
		t.Fatalf("explain_analyze missing or unrendered: %v", m["explain_analyze"])
	}
	if _, ok := m["spans"].(map[string]any); !ok {
		t.Fatalf("spans missing from analyze response: %v", m)
	}

	// Scrape GET /metrics and check the exposition with a minimal parser.
	samples, types := scrapeMetrics(t, base+"/metrics")
	if got := samples["repro_store_triples"]; got != 3 {
		t.Fatalf("repro_store_triples = %v, want 3", got)
	}
	if got := samples[`repro_requests_total{endpoint="execute"}`]; got != 2 {
		t.Fatalf("execute request counter = %v, want 2", got)
	}
	if got := samples["repro_traces_total"]; got < 1 {
		t.Fatalf("repro_traces_total = %v, want >= 1", got)
	}
	for name, typ := range map[string]string{
		"repro_store_triples":            "gauge",
		"repro_requests_total":           "counter",
		"repro_request_latency_seconds":  "histogram",
		"repro_plan_cache_hits_total":    "counter",
		"repro_traces_retained_total":    "counter",
		"repro_pool_rejected_total":      "counter",
		"repro_kernel_batches_total":     "counter",
		"repro_algebra_union_rows_total": "counter",
	} {
		if types[name] != typ {
			t.Fatalf("metric %s has TYPE %q, want %q", name, types[name], typ)
		}
	}
	// Histogram sanity: cumulative buckets end at +Inf == _count.
	inf := samples[`repro_request_latency_seconds_bucket{endpoint="execute",le="+Inf"}`]
	count := samples[`repro_request_latency_seconds_count{endpoint="execute"}`]
	if inf != 2 || count != 2 {
		t.Fatalf("execute latency histogram: +Inf bucket %v, _count %v, want 2 each", inf, count)
	}

	// GET /trace/recent returns the analyze run, span tree included.
	tresp, err := http.Get(base + "/trace/recent?n=5")
	if err != nil {
		t.Fatal(err)
	}
	var recent struct {
		Total  uint64           `json:"total"`
		Traces []map[string]any `json:"traces"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&recent); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != 200 || recent.Total < 1 || len(recent.Traces) < 1 {
		t.Fatalf("/trace/recent status %d payload %+v", tresp.StatusCode, recent)
	}
	tr := recent.Traces[0]
	if tr["endpoint"] != "execute" || tr["template"] != "f" {
		t.Fatalf("trace provenance = %v", tr)
	}
	if _, ok := tr["spans"].(map[string]any); !ok {
		t.Fatalf("trace has no span tree: %v", tr)
	}
	// CI uploads a sample trace as a build artifact when asked.
	if out := os.Getenv("TRACE_ARTIFACT_OUT"); out != "" {
		data, err := json.MarshalIndent(recent, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Graceful shutdown.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if _, err := http.Get(fmt.Sprintf("%s/healthz", base)); err == nil {
		t.Fatal("server still reachable after shutdown")
	}
}

// TestServeDropsHalfSentHeader: a client that opens a connection, sends
// part of a request header and stalls is disconnected after
// readHeaderTimeout, and the server keeps serving.
func TestServeDropsHalfSentHeader(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "data.nt")
	if err := os.WriteFile(path, []byte("<http://x/a> <http://x/p> <http://x/b> .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := service.Load(path, service.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, l, svc) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /query HTTP/1.1\r\nHost: x\r\nContent-Le")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start), err)
	}
	// net/http closes with nothing or with a bare 4xx, depending on where
	// in the header the deadline struck; either way not with a result.
	if len(got) != 0 && !bytes.HasPrefix(got, []byte("HTTP/1.1 4")) {
		t.Fatalf("server answered a request it never received: %q", got)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection dropped after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
	resp, err := http.Get("http://" + l.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d after the drop", resp.StatusCode)
	}
}

// TestFlagsExactAccounting: served stops LIMIT pipelines early by default,
// and -exact-accounting turns that off without dropping any other flag,
// whichever order the flags come in.
func TestFlagsExactAccounting(t *testing.T) {
	cfg, err := parseFlags([]string{"-data", "x.nt"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.opts.Exec.EarlyStop {
		t.Fatal("EarlyStop off without -exact-accounting")
	}
	for _, args := range [][]string{
		{"-data", "x.nt", "-exact-accounting", "-workers", "2"},
		{"-data", "x.nt", "-workers", "2", "-exact-accounting"},
	} {
		cfg, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.opts.Exec.EarlyStop {
			t.Fatalf("%v: EarlyStop still on", args)
		}
		if cfg.opts.Workers != 2 {
			t.Fatalf("%v: Workers = %d, want 2", args, cfg.opts.Workers)
		}
	}
}
