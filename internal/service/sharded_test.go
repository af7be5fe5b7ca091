package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// writeShardedSnapshot partitions st into n subject-hash shards and writes
// them as a sharded snapshot directory, returning its path.
func writeShardedSnapshot(t *testing.T, dir, name string, st *store.Store, n int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := store.WriteSharded(path, store.NewSharded(st, n)); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServiceShardedCoordinator wraps the mixed BSBM/SNB store in a
// 4-shard coordinator and checks the whole prepared-workload surface is
// byte-identical to the single-store service, and that /stats and
// /metrics expose the per-shard breakdown.
func TestServiceShardedCoordinator(t *testing.T) {
	st := buildMixedStore(t)
	single := New(st, "", Options{Workers: 2})
	sharded := New(st, "", Options{Workers: 2, Shards: 4})

	if got := sharded.Store().Backend(); got != "sharded(4, heap)" {
		t.Fatalf("backend = %q", got)
	}
	items := buildMixedWorkload(t, single, st, 3)
	shardedItems := buildMixedWorkload(t, sharded, st, 3)
	for i, it := range items {
		want, err := single.Execute(context.Background(), it.prep, it.bind)
		if err != nil {
			t.Fatalf("single %s: %v", it.key, err)
		}
		got, err := sharded.Execute(context.Background(), shardedItems[i].prep, shardedItems[i].bind)
		if err != nil {
			t.Fatalf("sharded %s: %v", it.key, err)
		}
		if canonical(got) != canonical(want) {
			t.Fatalf("%s: sharded coordinator diverges from single store\ngot:\n%s\nwant:\n%s",
				it.key, canonical(got), canonical(want))
		}
	}

	stats := sharded.Stats()
	if stats.Store.Shards != 4 || len(stats.Store.PerShard) != 4 {
		t.Fatalf("stats shards = %d, per-shard = %d", stats.Store.Shards, len(stats.Store.PerShard))
	}
	var sum int
	for _, ps := range stats.Store.PerShard {
		sum += ps.Triples
	}
	if sum != stats.Store.Triples {
		t.Fatalf("per-shard triples sum %d != total %d", sum, stats.Store.Triples)
	}
	if ss := single.Stats(); ss.Store.Shards != 0 || len(ss.Store.PerShard) != 0 {
		t.Fatalf("single-store stats leak shard fields: %+v", ss.Store)
	}

	srv := httptest.NewServer(sharded.Handler())
	defer srv.Close()
	body := fetchText(t, srv.URL+"/metrics")
	for _, want := range []string{
		"repro_store_shards 4\n",
		fmt.Sprintf("repro_shard_triples{shard=\"0\"} %d\n", stats.Store.PerShard[0].Triples),
		"repro_shard_pending_inserts{shard=\"3\"} 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestServiceShardedUpdate routes updates by subject hash across shards
// and keeps the query surface identical to a single-store service fed the
// same updates; per-shard pending counts show up in /stats and
// compaction folds every shard.
func TestServiceShardedUpdate(t *testing.T) {
	ctx := context.Background()
	single := New(buildTinyStore(t), "tiny", Options{})
	sharded := New(buildTinyStore(t), "tiny", Options{Shards: 3})

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
		if gotRes.Inserted != wantRes.Inserted || gotRes.Deleted != wantRes.Deleted ||
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
	stats := sharded.Stats()
	var pi, pd int
	for _, ps := range stats.Store.PerShard {
		pi += ps.PendingInserts
		pd += ps.PendingDeletes
	}
	if pi != stats.Store.PendingInserts || pd != stats.Store.PendingDeletes || pi != 2 || pd != 1 {
		t.Fatalf("per-shard pending (%d,%d) vs totals (%d,%d)", pi, pd, stats.Store.PendingInserts, stats.Store.PendingDeletes)
	}

	// A no-op update must not publish a new generation on any shard.
	gen := sharded.Generation()
	res, err := sharded.Update(ctx, `DELETE DATA { <http://x/nobody> <http://x/knows> <http://x/noone> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != gen {
		t.Fatalf("no-op update published generation %d (was %d)", res.Generation, gen)
	}

	sharded.Compact()
	stats = sharded.Stats()
	if stats.Store.PendingInserts != 0 || stats.Store.PendingDeletes != 0 {
		t.Fatalf("pending after compact: %+v", stats.Store)
	}
	for i, ps := range stats.Store.PerShard {
		if ps.PendingInserts != 0 || ps.PendingDeletes != 0 || ps.Triples != ps.BaseTriples {
			t.Fatalf("shard %d not folded: %+v", i, ps)
		}
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
		t.Fatal("results diverge after sharded compaction")
	}
}

// TestShardedReloadDefersUnmapAllShards reloads a mapped 4-shard snapshot
// directory while an outcome from the old generation is still open: every
// one of the retired generation's shard mappings must stay pinned until
// the last in-flight query drains, then all release together.
func TestShardedReloadDefersUnmapAllShards(t *testing.T) {
	dir := t.TempDir()
	pathA := writeShardedSnapshot(t, dir, "a.shards", buildTinyStore(t), 4)
	pathB := writeShardedSnapshot(t, dir, "b.shards", buildMixedStore(t), 4)

	svc, err := Load(pathA, Options{AllowReload: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Store().Backend(); got != "sharded(4, mapped)" {
		t.Fatalf("backend = %q", got)
	}
	oldMappings := svc.Store().Mappings()
	if len(oldMappings) != 4 {
		t.Fatalf("mapped sharded load has %d mappings, want 4", len(oldMappings))
	}

	out, err := svc.Query(context.Background(), probeQuery, nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := svc.Reload(pathB); err != nil {
		t.Fatal(err)
	}
	// One retired generation holds all four shard mappings.
	if n := svc.Stats().Store.MappingsAwaitingUnmap; n != 1 {
		t.Fatalf("awaiting unmap = %d, want 1", n)
	}
	for i, m := range oldMappings {
		if m.Refs() <= 0 {
			t.Fatalf("shard %d mapping released while a query still pins its generation", i)
		}
	}
	if rows := out.DecodedRows(); len(rows) != 3 {
		t.Fatalf("rows decoded after sharded remap = %v", rows)
	}

	out.Close()
	if n := svc.Stats().Store.MappingsAwaitingUnmap; n != 0 {
		t.Fatalf("awaiting unmap after close = %d, want 0", n)
	}
	for i, m := range oldMappings {
		if refs := m.Refs(); refs != 0 {
			t.Fatalf("shard %d mapping refs after drain = %d, want 0", i, refs)
		}
	}
}

// TestShardedReloadQueryRace hammers queries against the coordinator
// while the main goroutine reloads between two mapped sharded snapshot
// directories (run under -race): every result must be consistent with
// one generation, and once drained no shard mapping may stay pinned.
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
				// count means a torn read across shard generations.
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
// file: though the service holds every store as a federation, a single
// store keeps the unsharded /stats and /metrics shape — its own backend
// name, no shard count and no per-shard breakdown.
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
		for _, key := range []string{"shards", "per_shard"} {
			if _, ok := raw.Store[key]; ok {
				t.Fatalf("%s: /stats store has %q: %v", backend, key, raw.Store)
			}
		}
		if raw.Store["triples"] != float64(tiny.Len()) {
			t.Fatalf("%s: /stats triples = %v", backend, raw.Store["triples"])
		}
		body := fetchText(t, srv.URL+"/metrics")
		srv.Close()
		if !strings.Contains(body, "repro_store_shards 0\n") || strings.Contains(body, "repro_shard_") {
			t.Fatalf("%s: /metrics has a shard breakdown:\n%s", backend, body)
		}
		if want := fmt.Sprintf("repro_compact_threshold %d\n", svc.compactThresholdFor(tiny.Len())); !strings.Contains(body, want) {
			t.Fatalf("%s: /metrics missing %q", backend, want)
		}
	}
}

// TestShardedCompactThreshold checks /stats reports the threshold
// compaction actually uses: each shard folds against its own base, so
// per_shard carries that shard's threshold and the top-level value is the
// smallest of them, not one resolved against the federation's total.
func TestShardedCompactThreshold(t *testing.T) {
	st := buildMixedStore(t)
	svc := New(st, "", Options{Shards: 4})
	stats := svc.Stats()
	if len(stats.Store.PerShard) != 4 {
		t.Fatalf("per-shard = %d", len(stats.Store.PerShard))
	}
	min := -1
	for i, ps := range stats.Store.PerShard {
		want := max(1024, ps.BaseTriples/8)
		if ps.CompactThreshold != want {
			t.Fatalf("shard %d: compact_threshold %d, want %d", i, ps.CompactThreshold, want)
		}
		if min < 0 || want < min {
			min = want
		}
	}
	if got := stats.Updates.CompactThreshold; got != min {
		t.Fatalf("compact_threshold %d, want the per-shard minimum %d (total base %d)",
			got, min, stats.Store.BaseTriples)
	}
	if min >= st.Len()/8 {
		t.Fatalf("fixture too small: per-shard threshold %d not below the total's %d", min, st.Len()/8)
	}

	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := fetchText(t, srv.URL+"/metrics")
	for i, ps := range stats.Store.PerShard {
		if want := fmt.Sprintf("repro_shard_compact_threshold{shard=\"%d\"} %d\n", i, ps.CompactThreshold); !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	if want := fmt.Sprintf("repro_compact_threshold %d\n", min); !strings.Contains(body, want) {
		t.Fatalf("/metrics missing %q", want)
	}
}
