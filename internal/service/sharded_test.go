package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// writeShardedSnapshot splits st into n subject-hash shards and writes
// them as a shard directory, returning its path.
func writeShardedSnapshot(t *testing.T, dir, name string, st *store.Store, n int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := store.WriteSharded(path, store.NewSharded(st, n)); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServiceShardDirectory loads the mixed BSBM/SNB store once from its
// v4 file and once from its 4-shard directory (mapped and heap-loaded):
// every prepared template and binding answers identically, plan signature
// and accounting included. On the shard-loaded service, /update, Compact
// and /reload then behave as they do on the v4-loaded one.
func TestServiceShardDirectory(t *testing.T) {
	ctx := context.Background()
	st := buildMixedStore(t)
	dir := t.TempDir()
	v4 := writeV4Snapshot(t, dir, "mixed.v4.snap", st)
	shards := writeShardedSnapshot(t, dir, "mixed.shards", st, 4)

	file, err := Load(v4, Options{Workers: 2, AllowUpdate: true})
	if err != nil {
		t.Fatal(err)
	}
	items := buildMixedWorkload(t, file, st, 3)
	for _, heap := range []bool{false, true} {
		svc, err := Load(shards, Options{Workers: 2, HeapLoad: heap})
		if err != nil {
			t.Fatal(err)
		}
		if svc.Store().Len() != st.Len() {
			t.Fatalf("heap=%v: shard directory loaded %d triples, want %d", heap, svc.Store().Len(), st.Len())
		}
		got := buildMixedWorkload(t, svc, st, 3)
		for i, it := range items {
			want, err := file.Execute(ctx, it.prep, it.bind)
			if err != nil {
				t.Fatalf("v4 %s: %v", it.key, err)
			}
			out, err := svc.Execute(ctx, got[i].prep, got[i].bind)
			if err != nil {
				t.Fatalf("heap=%v shards %s: %v", heap, it.key, err)
			}
			if canonical(out) != canonical(want) {
				t.Fatalf("heap=%v %s: shard directory diverges from the v4 file\ngot:\n%s\nwant:\n%s",
					heap, it.key, canonical(out), canonical(want))
			}
			out.Close()
			want.Close()
		}
	}

	svc, err := Load(shards, Options{Workers: 2, AllowUpdate: true, AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	const ins = `INSERT DATA { <http://x/dave> <http://x/knows> <http://x/erin> . <http://x/erin> <http://x/knows> <http://x/dave> . }`
	resp, body := postJSON(t, srv.URL+"/update", updateRequest{Update: ins})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/update = %d: %s", resp.StatusCode, body)
	}
	var res UpdateResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if _, err := file.Update(ctx, ins); err != nil {
		t.Fatal(err)
	}
	if res.Triples != st.Len()+2 || res.PendingInserts != 2 || res.Compacted {
		t.Fatalf("/update result %+v", res)
	}
	sameProbe := func(label string) {
		t.Helper()
		want, err := file.Query(ctx, probeQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.Query(ctx, probeQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		if canonical(got) != canonical(want) {
			t.Fatalf("%s: results diverge\ngot:\n%s\nwant:\n%s", label, canonical(got), canonical(want))
		}
	}
	sameProbe("after /update")
	svc.Compact()
	if s := svc.Stats().Store; s.PendingInserts != 0 || s.BaseTriples != st.Len()+2 {
		t.Fatalf("after Compact: %+v", s)
	}
	sameProbe("after Compact")

	resp, body = postJSON(t, srv.URL+"/reload", reloadRequest{Path: v4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reload = %d: %s", resp.StatusCode, body)
	}
	if s := svc.Stats().Store; s.Triples != st.Len() || s.Backend != "mapped" || s.Source != v4 {
		t.Fatalf("after /reload: %+v", s)
	}
}

// TestServiceShardedUpdate feeds the same updates to a heap store's
// service and to one loaded from the store's 3-shard directory: update
// results, pending counts and the query surface stay identical, a no-op
// publishes nothing and compaction folds the delta.
func TestServiceShardedUpdate(t *testing.T) {
	ctx := context.Background()
	single := New(buildTinyStore(t), "tiny", Options{})
	sharded, err := Load(writeShardedSnapshot(t, t.TempDir(), "tiny.shards", buildTinyStore(t), 3), Options{})
	if err != nil {
		t.Fatal(err)
	}

	updates := []string{
		`INSERT DATA { <http://x/dave> <http://x/knows> <http://x/erin> .
		               <http://x/erin> <http://x/knows> <http://x/alice> . }`,
		`DELETE DATA { <http://x/alice> <http://x/knows> <http://x/bob> . }`,
	}
	for _, u := range updates {
		wantRes, err := single.Update(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := sharded.Update(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if gotRes.Inserted != wantRes.Inserted || gotRes.Deleted != wantRes.Deleted || gotRes.Triples != wantRes.Triples ||
			gotRes.PendingInserts != wantRes.PendingInserts || gotRes.PendingDeletes != wantRes.PendingDeletes {
			t.Fatalf("update results diverge: %+v vs %+v", gotRes, wantRes)
		}
		want, err := single.Query(ctx, probeQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Query(ctx, probeQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		if canonical(got) != canonical(want) {
			t.Fatalf("post-update results diverge\ngot:\n%s\nwant:\n%s", canonical(got), canonical(want))
		}
	}
	if s := sharded.Stats().Store; s.PendingInserts != 2 || s.PendingDeletes != 1 {
		t.Fatalf("pending (%d,%d), want (2,1)", s.PendingInserts, s.PendingDeletes)
	}

	// A no-op update must not publish a new generation.
	gen := sharded.Generation()
	res, err := sharded.Update(ctx, `DELETE DATA { <http://x/nobody> <http://x/knows> <http://x/noone> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != gen {
		t.Fatalf("no-op update published generation %d (was %d)", res.Generation, gen)
	}

	sharded.Compact()
	if s := sharded.Stats().Store; s.PendingInserts != 0 || s.PendingDeletes != 0 || s.Triples != s.BaseTriples {
		t.Fatalf("pending after compact: %+v", s)
	}
	want, err := single.Query(ctx, probeQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Query(ctx, probeQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(got) != canonical(want) {
		t.Fatal("results diverge after compaction")
	}
}

// TestShardedReloadDefersUnmapAllShards reloads a mapped 4-shard
// directory while an outcome from the old generation is still open. The
// open released shards 1–3 and kept shard 0's mapping, which the
// dictionary reads: it must stay pinned until the last in-flight query
// drains, then release.
func TestShardedReloadDefersUnmapAllShards(t *testing.T) {
	dir := t.TempDir()
	pathA := writeShardedSnapshot(t, dir, "a.shards", buildTinyStore(t), 4)
	pathB := writeShardedSnapshot(t, dir, "b.shards", buildMixedStore(t), 4)

	svc, err := Load(pathA, Options{AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Store().Backend(); got != "heap" {
		t.Fatalf("backend = %q", got)
	}
	old := svc.Store().Mapping()
	if old == nil || old.Refs() != 1 {
		t.Fatalf("mapped shard load: mapping %v, want shard 0's held once by the generation", old)
	}

	out, err := svc.Query(context.Background(), probeQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Reload(pathB); err != nil {
		t.Fatal(err)
	}
	if n := svc.Stats().Store.MappingsAwaitingUnmap; n != 1 {
		t.Fatalf("awaiting unmap = %d, want 1", n)
	}
	if old.Refs() <= 0 {
		t.Fatal("shard 0's mapping released while a query still pins its generation")
	}
	if rows := out.DecodedRows(); len(rows) != 3 {
		t.Fatalf("rows decoded after remap = %v", rows)
	}

	out.Close()
	if n := svc.Stats().Store.MappingsAwaitingUnmap; n != 0 {
		t.Fatalf("awaiting unmap after close = %d, want 0", n)
	}
	if refs := old.Refs(); refs != 0 {
		t.Fatalf("shard 0's mapping refs after drain = %d, want 0", refs)
	}
}

// TestShardedReloadQueryRace hammers queries while the main goroutine
// reloads between two mapped shard directories (run under -race): every
// result must be consistent with one generation, and once drained no
// mapping may stay pinned.
func TestShardedReloadQueryRace(t *testing.T) {
	dir := t.TempDir()
	pathA := writeShardedSnapshot(t, dir, "a.shards", buildTinyStore(t), 4)

	b := store.NewBuilder()
	if err := b.Add(rdf.NewTriple(rdf.NewIRI("http://x/dave"), rdf.NewIRI("http://x/knows"), rdf.NewIRI("http://x/erin"))); err != nil {
		t.Fatal(err)
	}
	pathB := writeShardedSnapshot(t, dir, "b.shards", b.Build(), 4)

	svc, err := Load(pathA, Options{AllowReload: true})
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
				out, err := svc.Query(context.Background(), probeQuery, nil)
				if err != nil {
					errc <- err
					return
				}
				rows := out.DecodedRows()
				n := len(rows)
				out.Close()
				// Snapshot A has 3 knows edges, snapshot B has 1; any other
				// count means a torn read across generations.
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
	if n := svc.Stats().Store.MappingsAwaitingUnmap; n != 0 {
		t.Fatalf("awaiting unmap after drain = %d, want 0", n)
	}
}

// TestSingleStoreStatsShape serves a plain heap store and a mapped v4
// file: /stats names each one's own backend and triple count, and
// /metrics the compaction threshold resolved against the store.
func TestSingleStoreStatsShape(t *testing.T) {
	tiny := buildTinyStore(t)
	mapped, err := Load(writeV4Snapshot(t, t.TempDir(), "tiny.v4.snap", tiny), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for backend, svc := range map[string]*Service{"heap": New(tiny, "", Options{}), "mapped": mapped} {
		srv := httptest.NewServer(svc.Handler())
		var raw struct {
			Store map[string]any `json:"store"`
		}
		getJSON(t, srv.URL+"/stats", &raw)
		if raw.Store["backend"] != backend {
			t.Fatalf("%s: /stats backend = %v", backend, raw.Store["backend"])
		}
		if raw.Store["triples"] != float64(tiny.Len()) {
			t.Fatalf("%s: /stats triples = %v", backend, raw.Store["triples"])
		}
		body := fetchText(t, srv.URL+"/metrics")
		srv.Close()
		if want := fmt.Sprintf("repro_compact_threshold %d\n", svc.compactThresholdFor(tiny.Len())); !strings.Contains(body, want) {
			t.Fatalf("%s: /metrics missing %q", backend, want)
		}
	}
}

// TestShardedCompactThreshold: a store loaded from a shard directory is
// one store, so /stats and /metrics resolve the compaction threshold
// against its whole base, not against any one shard file's.
func TestShardedCompactThreshold(t *testing.T) {
	st := buildMixedStore(t)
	svc, err := Load(writeShardedSnapshot(t, t.TempDir(), "mixed.shards", st, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := st.Len() / 8
	if want <= 1024 {
		t.Fatalf("fixture too small: base/8 = %d is not above the 1024 floor", want)
	}
	stats := svc.Stats()
	if stats.Store.BaseTriples != st.Len() || stats.Updates.CompactThreshold != want {
		t.Fatalf("base %d, compact_threshold %d, want %d and %d", stats.Store.BaseTriples, stats.Updates.CompactThreshold, st.Len(), want)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	if body := fetchText(t, srv.URL+"/metrics"); !strings.Contains(body, fmt.Sprintf("repro_compact_threshold %d\n", want)) {
		t.Fatalf("/metrics missing repro_compact_threshold %d", want)
	}
}
