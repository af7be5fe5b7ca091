package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func startTestServer(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(buildTinyStore(t), "test", opts)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPQueryAndHealthz(t *testing.T) {
	_, srv := startTestServer(t, Options{})
	var health healthResponse
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Triples != 6 || health.Generation != 1 {
		t.Fatalf("health = %+v", health)
	}

	resp, body := postJSON(t, srv.URL+"/query", queryRequest{
		Query:    `SELECT ?f WHERE { %who <http://x/knows> ?f . } ORDER BY ?f`,
		Bindings: map[string]string{"who": "<http://x/alice>"},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var res resultPayload
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 2 || res.Rows[0][0] != "<http://x/bob>" || res.Vars[0] != "?f" {
		t.Fatalf("result = %+v", res)
	}
	if res.Generation != 1 || res.PlanSignature == "" {
		t.Fatalf("metadata missing: %+v", res)
	}
}

func TestHTTPPrepareExecuteBatchAndStats(t *testing.T) {
	_, srv := startTestServer(t, Options{})
	resp, body := postJSON(t, srv.URL+"/prepare", prepareRequest{
		Name:  "friends",
		Query: `SELECT ?f WHERE { %who <http://x/knows> ?f . } ORDER BY ?f`,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("prepare status %d: %s", resp.StatusCode, body)
	}
	var prep prepareResponse
	if err := json.Unmarshal(body, &prep); err != nil {
		t.Fatal(err)
	}
	if len(prep.Params) != 1 || prep.Params[0] != "who" {
		t.Fatalf("prepare = %+v", prep)
	}

	// Single-binding form returns a bare result object.
	resp, body = postJSON(t, srv.URL+"/execute", executeRequest{
		Name:     "friends",
		Bindings: map[string]string{"who": "<http://x/alice>"},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("execute status %d: %s", resp.StatusCode, body)
	}
	var single resultPayload
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	if single.RowCount != 2 || single.CacheHit {
		t.Fatalf("single = %+v", single)
	}

	// Batch form; the repeated binding is a cache hit.
	resp, body = postJSON(t, srv.URL+"/execute", executeRequest{
		Name: "friends",
		Batch: []map[string]string{
			{"who": "<http://x/alice>"},
			{"who": "<http://x/bob>"},
		},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var batch executeResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || !batch.Results[0].CacheHit || batch.Results[1].RowCount != 1 {
		t.Fatalf("batch = %+v", batch)
	}

	var st Stats
	if resp := getJSON(t, srv.URL+"/stats", &st); resp.StatusCode != 200 {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 2 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	if st.Requests["execute"].Count != 2 || st.Requests["execute"].LatencyMs.Total != 2 {
		t.Fatalf("request stats = %+v", st.Requests)
	}
	if len(st.Prepared) != 1 || st.Prepared[0] != "friends" {
		t.Fatalf("prepared list = %v", st.Prepared)
	}
	if st.Pool.TokensInUse != 0 {
		t.Fatalf("pool stats = %+v (no request in flight)", st.Pool)
	}
}

// TestHTTPExecuteErrorItem: a single-binding /execute runs on its own, so
// its errors name no batch item; a batch's errors name the failing item.
func TestHTTPExecuteErrorItem(t *testing.T) {
	_, srv := startTestServer(t, Options{})
	if resp, body := postJSON(t, srv.URL+"/prepare", prepareRequest{
		Name:  "friends",
		Query: `SELECT ?f WHERE { %who <http://x/knows> ?f . }`,
	}); resp.StatusCode != 200 {
		t.Fatalf("prepare status %d: %s", resp.StatusCode, body)
	}
	alice := map[string]string{"who": "<http://x/alice>"}
	for _, c := range []struct {
		name, want string
		req        executeRequest
	}{
		{"single unbound", "unbound parameter", executeRequest{Name: "friends"}},
		{"single bad term", "binding who: ", executeRequest{Name: "friends", Bindings: map[string]string{"who": "not-a-term"}}},
		{"batch unbound", "batch item 1: ", executeRequest{Name: "friends", Batch: []map[string]string{alice, {}}}},
		{"batch bad term", "batch item 1: ", executeRequest{Name: "friends", Batch: []map[string]string{alice, {"who": "not-a-term"}}}},
	} {
		resp, body := postJSON(t, srv.URL+"/execute", c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(e.Error, c.want) {
			t.Fatalf("%s: error %q, want it to contain %q", c.name, e.Error, c.want)
		}
		if c.req.Batch == nil && strings.Contains(e.Error, "batch item") {
			t.Fatalf("%s: single-binding error %q names a batch item", c.name, e.Error)
		}
	}
}

func TestHTTPMaxRowsTruncation(t *testing.T) {
	_, srv := startTestServer(t, Options{})
	resp, body := postJSON(t, srv.URL+"/query", queryRequest{
		Query:   `SELECT * WHERE { ?s ?p ?o . }`,
		MaxRows: 2,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res resultPayload
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.RowCount != 6 || !res.Truncated {
		t.Fatalf("truncation wrong: rows=%d count=%d truncated=%v", len(res.Rows), res.RowCount, res.Truncated)
	}
}

func TestHTTPErrors(t *testing.T) {
	svc, srv := startTestServer(t, Options{Workers: 1, QueueDepth: -1})

	// Unknown template.
	if resp, _ := postJSON(t, srv.URL+"/execute", executeRequest{Name: "nope"}); resp.StatusCode != 400 {
		t.Fatalf("unknown template: status %d", resp.StatusCode)
	}
	// Malformed term.
	if resp, _ := postJSON(t, srv.URL+"/query", queryRequest{
		Query:    `SELECT ?f WHERE { %who <http://x/knows> ?f . }`,
		Bindings: map[string]string{"who": "not-a-term"},
	}); resp.StatusCode != 400 {
		t.Fatalf("bad term: status %d", resp.StatusCode)
	}
	// Parse error.
	if resp, _ := postJSON(t, srv.URL+"/query", queryRequest{Query: "SELECT WHERE {"}); resp.StatusCode != 400 {
		t.Fatalf("parse error: status %d", resp.StatusCode)
	}
	// Unknown JSON field.
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte(`{"nope": 1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}

	// Overload: occupy the single worker, no queue configured.
	release, err := svc.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp2, body := postJSON(t, srv.URL+"/query", queryRequest{Query: `SELECT * WHERE { ?s ?p ?o . }`})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d body %s", resp2.StatusCode, body)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	release()
}

func TestHTTPReloadDisabledByDefault(t *testing.T) {
	_, srv := startTestServer(t, Options{})
	if resp, _ := postJSON(t, srv.URL+"/reload", reloadRequest{Path: "/nope"}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("reload without AllowReload: status %d", resp.StatusCode)
	}
}

func TestHTTPReload(t *testing.T) {
	svc, srv := startTestServer(t, Options{AllowReload: true})

	// Write a one-triple snapshot to disk and hot-swap it in.
	b := store.NewBuilder()
	if err := b.Add(rdf.NewTriple(rdf.NewIRI("http://x/dave"), rdf.NewIRI("http://x/knows"), rdf.NewIRI("http://x/erin"))); err != nil {
		t.Fatal(err)
	}
	st := b.Build()
	path := filepath.Join(t.TempDir(), "dave.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, srv.URL+"/reload", reloadRequest{Path: path})
	if resp.StatusCode != 200 {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	var rl reloadResponse
	if err := json.Unmarshal(body, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Generation != 2 || rl.Triples != 1 {
		t.Fatalf("reload = %+v", rl)
	}
	if svc.Generation() != 2 {
		t.Fatalf("service generation = %d", svc.Generation())
	}

	// Queries now run against the new snapshot.
	resp, body = postJSON(t, srv.URL+"/query", queryRequest{Query: `SELECT * WHERE { ?s <http://x/knows> ?o . }`})
	if resp.StatusCode != 200 {
		t.Fatalf("post-reload query status %d: %s", resp.StatusCode, body)
	}
	var res resultPayload
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.RowCount != 1 || res.Generation != 2 {
		t.Fatalf("post-reload result = %+v", res)
	}

	// Reloading a missing file fails without touching the served snapshot.
	resp, _ = postJSON(t, srv.URL+"/reload", reloadRequest{Path: filepath.Join(t.TempDir(), "missing.snap")})
	if resp.StatusCode != 400 {
		t.Fatalf("missing reload: status %d", resp.StatusCode)
	}
	if svc.Generation() != 2 {
		t.Fatal("failed reload must not bump the generation")
	}
}
