package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/rdf"
	"repro/internal/store"
)

// writeV4Snapshot serializes st as a v4 snapshot under dir and returns the
// file path.
func writeV4Snapshot(t *testing.T, dir, name string, st *store.Store) string {
	t.Helper()
	path := filepath.Join(dir, name)
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
	return path
}

// TestServiceMappedBackend loads a v4 snapshot through the service's default
// path and checks it serves from the mapping: correct query results, mapped
// backend surfaced in /stats and /metrics, and the HeapLoad escape hatch.
func TestServiceMappedBackend(t *testing.T) {
	path := writeV4Snapshot(t, t.TempDir(), "tiny.v4.snap", buildTinyStore(t))

	svc, err := Load(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Store().Backend(); got != "mapped" {
		t.Fatalf("backend = %q, want mapped", got)
	}

	out, err := svc.Query(context.Background(), `SELECT ?f WHERE { <http://x/alice> <http://x/knows> ?f . } ORDER BY ?f`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.DecodedRows()
	out.Close()
	if len(rows) != 2 || rows[0][0] != "<http://x/bob>" || rows[1][0] != "<http://x/carol>" {
		t.Fatalf("rows = %v", rows)
	}

	st := svc.Stats()
	if st.Store.Backend != "mapped" {
		t.Fatalf("stats backend = %q", st.Store.Backend)
	}
	if st.Store.MappedBytes <= 0 {
		t.Fatalf("stats mapped bytes = %d", st.Store.MappedBytes)
	}
	if st.Store.MappingsAwaitingUnmap != 0 {
		t.Fatalf("awaiting unmap = %d", st.Store.MappingsAwaitingUnmap)
	}

	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := fetchText(t, srv.URL+"/metrics")
	for _, want := range []string{
		"repro_store_mapped 1\n",
		fmt.Sprintf("repro_store_mapped_bytes %d\n", st.Store.MappedBytes),
		"repro_store_mappings_awaiting_unmap 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// -heap-load forces the fully validating deserialization path.
	heap, err := Load(path, Options{HeapLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := heap.Store().Backend(); got != "heap" {
		t.Fatalf("HeapLoad backend = %q, want heap", got)
	}
	if hs := heap.Stats(); hs.Store.MappedBytes != 0 || hs.Store.Backend != "heap" {
		t.Fatalf("HeapLoad stats = %+v", hs.Store)
	}
}

// TestReloadRemapDefersUnmap reloads from one mapped snapshot to another
// while an outcome from the old generation is still open, and checks the
// old mapping stays readable until that outcome closes.
func TestReloadRemapDefersUnmap(t *testing.T) {
	dir := t.TempDir()
	pathA := writeV4Snapshot(t, dir, "a.v4.snap", buildTinyStore(t))

	b := store.NewBuilder()
	if err := b.Add(rdf.NewTriple(rdf.NewIRI("http://x/dave"), rdf.NewIRI("http://x/knows"), rdf.NewIRI("http://x/erin"))); err != nil {
		t.Fatal(err)
	}
	pathB := writeV4Snapshot(t, dir, "b.v4.snap", b.Build())

	svc, err := Load(pathA, Options{AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	oldMappings := svc.Store().Mappings()
	if len(oldMappings) == 0 {
		t.Fatal("mapped load has no mapping")
	}
	oldMapping := oldMappings[0]

	// A query outcome from generation 1, deliberately left open across the
	// reload: its rows decode lazily out of the old mapping.
	out, err := svc.Query(context.Background(), `SELECT ?f WHERE { <http://x/alice> <http://x/knows> ?f . } ORDER BY ?f`, nil)
	if err != nil {
		t.Fatal(err)
	}

	gen, triples, err := svc.Reload(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || triples != 1 {
		t.Fatalf("reload = gen %d, %d triples", gen, triples)
	}
	if got := svc.Store().Backend(); got != "mapped" {
		t.Fatalf("post-reload backend = %q", got)
	}
	if ms := svc.Store().Mappings(); len(ms) != 1 || ms[0] == oldMapping {
		t.Fatal("reload did not swap the mapping")
	}

	// The retired generation is pinned by the open outcome: gauge up, old
	// mapping alive, and decoding through it still yields generation-1 rows.
	if n := svc.Stats().Store.MappingsAwaitingUnmap; n != 1 {
		t.Fatalf("awaiting unmap = %d, want 1", n)
	}
	if oldMapping.Refs() <= 0 {
		t.Fatal("old mapping released while a query still holds it")
	}
	rows := out.DecodedRows()
	if len(rows) != 2 || rows[0][0] != "<http://x/bob>" || rows[1][0] != "<http://x/carol>" {
		t.Fatalf("rows decoded after remap = %v", rows)
	}

	// Closing the last outcome drains the generation: gauge back to zero and
	// the mapping unmapped.
	out.Close()
	if n := svc.Stats().Store.MappingsAwaitingUnmap; n != 0 {
		t.Fatalf("awaiting unmap after close = %d, want 0", n)
	}
	if refs := oldMapping.Refs(); refs != 0 {
		t.Fatalf("old mapping refs after close = %d, want 0", refs)
	}
	// Close is idempotent; a second call must not double-release.
	out.Close()
	if refs := oldMapping.Refs(); refs != 0 {
		t.Fatalf("old mapping refs after double close = %d", refs)
	}
}

// TestMappedReloadQueryRace hammers queries against the service while the
// main goroutine remaps between two v4 snapshots, checking every result is
// internally consistent with the generation it ran against. Run with -race
// this exercises the pin/retire/unmap lifecycle under contention.
func TestMappedReloadQueryRace(t *testing.T) {
	dir := t.TempDir()
	pathA := writeV4Snapshot(t, dir, "a.v4.snap", buildTinyStore(t))

	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	iri := rdf.NewIRI
	knows := iri("http://x/knows")
	add(iri("http://x/alice"), knows, iri("http://x/bob"))
	pathB := writeV4Snapshot(t, dir, "b.v4.snap", b.Build())

	svc, err := Load(pathA, Options{AllowReload: true, Exec: exec.Options{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				out, err := svc.Query(context.Background(), `SELECT ?s ?f WHERE { ?s <http://x/knows> ?f . } ORDER BY ?s ?f`, nil)
				if err != nil {
					errc <- err
					return
				}
				rows := out.DecodedRows()
				n := len(rows)
				out.Close()
				// Snapshot A has 3 knows edges, snapshot B has 1; any
				// other count means a torn read across the swap.
				if n != 3 && n != 1 {
					errc <- fmt.Errorf("query saw %d knows edges, want 3 or 1", n)
					return
				}
			}
		}()
	}
	paths := []string{pathB, pathA}
	for i := 0; i < 20; i++ {
		if _, _, err := svc.Reload(paths[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// With every query drained, no retired generation may still hold a
	// mapping.
	if n := svc.Stats().Store.MappingsAwaitingUnmap; n != 0 {
		t.Fatalf("awaiting unmap after drain = %d, want 0", n)
	}
}

func fetchText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, data)
	}
	return string(data)
}
