package store

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dict"
	"repro/internal/rdf"
)

var shardCounts = []int{1, 2, 4, 7}

// drainScan collects a cursor's whole stream in mixed batch sizes, which
// exercises both the merge path and the zero-copy plain-run path.
func drainScan(sc *Scan) []IDTriple {
	var out []IDTriple
	max := 3
	for {
		batch := sc.Next(max)
		if batch == nil {
			return out
		}
		out = append(out, batch...)
		max = max*2 + 1
	}
}

// patternShapes returns one pattern per bound-mask shape, with values
// drawn from the store so bound patterns actually match.
func patternShapes(st Source) []Pattern {
	all, _ := st.Match(Pattern{})
	t := all[len(all)/2]
	return []Pattern{
		{},
		{S: t.S},
		{P: t.P},
		{O: t.O},
		{S: t.S, P: t.P},
		{S: t.S, O: t.O},
		{P: t.P, O: t.O},
		{S: t.S, P: t.P, O: t.O},
	}
}

// subjectPatterns returns subject-bound patterns of every shape for
// subjects spread over the store, plus one subject that does not occur.
func subjectPatterns(st Source) []Pattern {
	all, _ := st.Match(Pattern{})
	pats := []Pattern{{S: dict.ID(st.Dict().Len() + 1)}}
	for i := 0; i < len(all); i += len(all)/24 + 1 {
		t := all[i]
		pats = append(pats, Pattern{S: t.S}, Pattern{S: t.S, P: t.P}, Pattern{S: t.S, O: t.O}, Pattern{S: t.S, P: t.P, O: t.O})
	}
	return pats
}

// checkSourceEquivalence asserts that got and ref answer every read-path
// method identically.
func checkSourceEquivalence(t *testing.T, got, ref Source) {
	t.Helper()
	if got.Len() != ref.Len() {
		t.Fatalf("Len: %d != %d", got.Len(), ref.Len())
	}
	for _, pat := range append(patternShapes(ref), subjectPatterns(ref)...) {
		if g, w := got.Count(pat), ref.Count(pat); g != w {
			t.Fatalf("Count(%+v): %d != %d", pat, g, w)
		}
		g, _ := got.Match(pat)
		want, _ := ref.Match(pat)
		if !equalTriples(g, want) {
			t.Fatalf("Match(%+v): %v != %v", pat, g, want)
		}
		if g := drainScan(got.Scan(pat)); !equalTriples(g, want) {
			t.Fatalf("Scan(%+v): %v != %v", pat, g, want)
		}
		gBuf, _ := got.MatchBuf(pat, make([]IDTriple, 0, 4))
		if !equalTriples(gBuf, want) {
			t.Fatalf("MatchBuf(%+v): %v != %v", pat, gBuf, want)
		}
		for pos := 0; pos < 3; pos++ {
			g, w := got.DistinctValues(pos, pat), ref.DistinctValues(pos, pat)
			if len(g) != len(w) || (len(g) > 0 && !reflect.DeepEqual(g, w)) {
				t.Fatalf("DistinctValues(%d, %+v): %v != %v", pos, pat, g, w)
			}
		}
	}
	if !reflect.DeepEqual(got.Predicates(), ref.Predicates()) {
		t.Fatalf("Predicates: %v != %v", got.Predicates(), ref.Predicates())
	}
	for _, p := range ref.Predicates() {
		if g, w := got.PredicateStats(p), ref.PredicateStats(p); g != w {
			t.Fatalf("PredicateStats(%d): %+v != %+v", p, g, w)
		}
	}
	if tid, ok := ref.Dict().Lookup(rdf.NewIRI(rdf.RDFType)); ok {
		for _, c := range ref.DistinctValues(2, Pattern{P: tid}) {
			if g, w := got.SubjectsOfClass(c), ref.SubjectsOfClass(c); !reflect.DeepEqual(g, w) {
				t.Fatalf("SubjectsOfClass(%d): %v != %v", c, g, w)
			}
		}
	}
}

// writeLoad writes st as an n-shard directory and opens it again, mapped
// or heap-loaded; a mapped store's mapping is released at cleanup.
func writeLoad(t *testing.T, st *Store, n int, heap bool) *Store {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "snap")
	if err := WriteSharded(dir, NewSharded(st, n)); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSharded(dir, heap)
	if err != nil {
		t.Fatal(err)
	}
	if m := got.Mapping(); m != nil {
		t.Cleanup(m.Release)
	}
	return got
}

// sameDictIDs asserts that got's dictionary assigns every one of want's
// terms the same ID.
func sameDictIDs(t *testing.T, got, want *dict.Dict) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("dictionary length %d != %d", got.Len(), want.Len())
	}
	for id := dict.ID(1); int(id) <= want.Len(); id++ {
		if g, w := got.Decode(id), want.Decode(id); g != w {
			t.Fatalf("term %d: %v != %v", id, g, w)
		}
	}
}

// TestShardedReadEquivalence: a shard directory, at any shard count and
// in both load modes, opens to a store that answers every read exactly as
// the store it was written from.
func TestShardedReadEquivalence(t *testing.T) {
	ref := buildFrom(t, randomTriples(rand.New(rand.NewSource(7)), 400))
	for _, n := range append(shardCounts, 17) {
		for _, heap := range []bool{true, false} {
			checkSourceEquivalence(t, writeLoad(t, ref, n, heap), ref)
		}
	}
}

// TestShardedOverlayEquivalence applies the same op batches to a store and
// to the store loaded from its 4-shard directory: their overlays and
// commits stay read-equivalent, exact statistics included, and an overlay
// written as a shard directory opens with its delta folded in.
func TestShardedOverlayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	triples := randomTriples(rng, 300)
	base := buildFrom(t, triples)
	var ops []DeltaOp
	ops = append(ops, DeltaOp{Insert: true, Triples: randomTriples(rng, 60)})
	del := triples[10:40]
	ops = append(ops, DeltaOp{Triples: del})
	ops = append(ops, DeltaOp{Insert: true, Triples: append([]rdf.Triple{trp("brand-new-s", "brand-new-p", "brand-new-o")}, del[:5]...)})
	d, err := base.NewDelta().ApplyOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	refOv := d.Overlay()
	for _, heap := range []bool{true, false} {
		loaded := writeLoad(t, buildFrom(t, triples), 4, heap)
		ld, err := loaded.NewDelta().ApplyOps(ops)
		if err != nil {
			t.Fatal(err)
		}
		if ld.InsertCount() != d.InsertCount() || ld.DeleteCount() != d.DeleteCount() {
			t.Fatalf("heap=%v: pending (%d,%d) != (%d,%d)", heap, ld.InsertCount(), ld.DeleteCount(), d.InsertCount(), d.DeleteCount())
		}
		checkSourceEquivalence(t, ld.Overlay(), refOv)
		checkSourceEquivalence(t, ld.Commit(), refOv)
		checkSourceEquivalence(t, writeLoad(t, ld.Overlay(), 4, heap), refOv)
	}
}

// TestShardedApplyOpsNoChangeIdentity: over a store loaded from a shard
// directory, inserting present triples and deleting absent ones returns
// the receiver delta, so the service skips republishing, and an unknown
// subject does not grow the dictionary.
func TestShardedApplyOpsNoChangeIdentity(t *testing.T) {
	triples := randomTriples(rand.New(rand.NewSource(3)), 50)
	for _, heap := range []bool{true, false} {
		loaded := writeLoad(t, buildFrom(t, triples), 4, heap)
		d := loaded.NewDelta()
		got, err := d.ApplyOps([]DeltaOp{
			{Insert: true, Triples: triples[:5]},
			{Triples: []rdf.Triple{trp("nobody", "nothing", "nowhere")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != d {
			t.Fatalf("heap=%v: no-change ApplyOps must return the receiver", heap)
		}
		if _, ok := loaded.Dict().Lookup(iri("nobody")); ok {
			t.Fatalf("heap=%v: deleting an unknown subject must not grow the dictionary", heap)
		}
	}
}

// TestShardedUpdateDictOrder: updates that introduce new terms assign the
// same IDs over a store loaded from a shard directory as over the store
// it was written from, so their raw ID streams coincide.
func TestShardedUpdateDictOrder(t *testing.T) {
	triples := randomTriples(rand.New(rand.NewSource(5)), 100)
	ops := []DeltaOp{
		{Insert: true, Triples: []rdf.Triple{
			trp("new-a", "new-p1", "new-x"),
			trp("new-b", "new-p2", "new-y"),
			trp("new-c", "new-p1", "new-a"),
		}},
		{Triples: triples[:7]},
		{Insert: true, Triples: []rdf.Triple{trp("new-d", "new-p2", "new-b")}},
	}
	d, err := buildFrom(t, triples).NewDelta().ApplyOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	refOv := d.Overlay()
	want, _ := refOv.Match(Pattern{})
	for _, heap := range []bool{true, false} {
		ld, err := writeLoad(t, buildFrom(t, triples), 4, heap).NewDelta().ApplyOps(ops)
		if err != nil {
			t.Fatal(err)
		}
		ov := ld.Overlay()
		sameDictIDs(t, ov.Dict(), refOv.Dict())
		if got, _ := ov.Match(Pattern{}); !equalTriples(got, want) {
			t.Fatalf("heap=%v: raw ID streams diverge: %v != %v", heap, got, want)
		}
		sameStats(t, "loaded overlay", ov, referenceStore(t, refOv))
	}
}

// TestNewShardedOneShardWrapsStore: NewSharded pairs the store itself with
// a shard count, at any count, without copying, so it reads as the
// store does: a mapped store keeps its mapping, an overlay its delta.
func TestNewShardedOneShardWrapsStore(t *testing.T) {
	heap := randomBuilder(21, 200).Build()
	mapped, err := OpenMappedBytes(v4Image(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Mapping().Release()
	d, err := heap.NewDelta().Apply(randomTriples(rand.New(rand.NewSource(22)), 20), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"heap": heap, "mapped": mapped, "overlay": d.Overlay()} {
		for _, n := range []int{0, 1, 4} {
			sh := NewSharded(st, n)
			if sh.Store != st || sh.shards != max(n, 1) {
				t.Fatalf("%s n=%d: NewSharded does not wrap the store itself", name, n)
			}
			if sh.Mapping() != st.Mapping() || sh.Delta() != st.Delta() {
				t.Fatalf("%s n=%d: the wrapper lost the store's mapping or delta", name, n)
			}
		}
	}
}

// TestShardedSnapshotRoundtrip: at every shard count, in both load modes,
// a written shard directory opens to a store equal to the one it was
// written from in all six indexes, statistics, class index and dictionary
// IDs.
func TestShardedSnapshotRoundtrip(t *testing.T) {
	base := buildFrom(t, randomTriples(rand.New(rand.NewSource(13)), 250))
	for _, shards := range shardCounts {
		dir := filepath.Join(t.TempDir(), "snap")
		if err := WriteSharded(dir, NewSharded(base, shards)); err != nil {
			t.Fatal(err)
		}
		if !IsShardedSnapshot(dir) {
			t.Fatal("written directory not recognized as a shard directory")
		}
		if IsShardedSnapshot(filepath.Join(dir, shardFileName(0))) {
			t.Fatal("plain shard file misdetected as a shard directory")
		}
		for _, heap := range []bool{true, false} {
			got := writeLoad(t, base, shards, heap)
			if got.Delta() != nil {
				t.Fatalf("shards=%d heap=%v: loaded store carries a delta", shards, heap)
			}
			equalStores(t, got, base)
			sameDictIDs(t, got.Dict(), base.Dict())
		}
	}
}

// TestShardedBackendNaming: a shard directory opens onto heap indexes in
// both modes; a mapped open keeps shard 0's file mapped for the
// dictionary, a heap open keeps no mapping.
func TestShardedBackendNaming(t *testing.T) {
	base := buildFrom(t, randomTriples(rand.New(rand.NewSource(17)), 60))
	dir := t.TempDir()
	if err := WriteSharded(dir, NewSharded(base, 3)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, shardFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, heap := range []bool{true, false} {
		got, err := LoadSharded(dir, heap)
		if err != nil {
			t.Fatal(err)
		}
		want := int(fi.Size())
		if heap {
			want = 0
		}
		if got.Backend() != "heap" || got.MappedBytes() != want {
			t.Fatalf("heap=%v: backend %q with %d mapped bytes, want heap with %d", heap, got.Backend(), got.MappedBytes(), want)
		}
		if m := got.Mapping(); m != nil {
			if m.Refs() != 1 {
				t.Fatalf("mapped open: shard 0's mapping has %d references, want the caller's 1", m.Refs())
			}
			m.Release()
		}
	}
}

// TestLoadShardedSwappedShards swaps two shard files of a written
// directory: every file carries the same dictionary, and the open merges
// all runs, so the directory still opens to the same store.
func TestLoadShardedSwappedShards(t *testing.T) {
	base := buildFrom(t, randomTriples(rand.New(rand.NewSource(19)), 250))
	dir := t.TempDir()
	if err := WriteSharded(dir, NewSharded(base, 4)); err != nil {
		t.Fatal(err)
	}
	a, b, tmp := filepath.Join(dir, shardFileName(0)), filepath.Join(dir, shardFileName(1)), filepath.Join(dir, "swap")
	for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, heap := range []bool{true, false} {
		got, err := LoadSharded(dir, heap)
		if err != nil {
			t.Fatalf("heap=%v: %v", heap, err)
		}
		equalStores(t, got, base)
		sameDictIDs(t, got.Dict(), base.Dict())
		if m := got.Mapping(); m != nil {
			m.Release()
		}
	}
}

// TestLoadShardedRejectsMisplacedShards puts a shard file of another
// directory, written from a store over a different dictionary, in place
// of shard 1: its IDs do not name this directory's terms, so the open
// fails on the dictionary length in both load modes.
func TestLoadShardedRejectsMisplacedShards(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dir, foreign := t.TempDir(), t.TempDir()
	if err := WriteSharded(dir, NewSharded(buildFrom(t, randomTriples(rng, 250)), 4)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSharded(foreign, NewSharded(buildFrom(t, randomTriples(rng, 40)), 4)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(foreign, shardFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, shardFileName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, heap := range []bool{true, false} {
		st, err := LoadSharded(dir, heap)
		if err == nil {
			if m := st.Mapping(); m != nil {
				m.Release()
			}
			t.Fatalf("heap=%v: LoadSharded with another directory's shard 1 succeeded", heap)
		}
		if msg := err.Error(); !strings.Contains(msg, "shard 1") || !strings.Contains(msg, "dictionary length") {
			t.Fatalf("heap=%v: LoadSharded with another directory's shard 1: %v, want a dictionary length error for shard 1", heap, err)
		}
	}
}

// TestCheckPlacementOverlayInserts writes overlays as shard directories:
// each triple, the pending insertions under a known and under a new
// subject included, lands in the file of its subject's home shard, and
// every file carries the overlay's whole dictionary.
func TestCheckPlacementOverlayInserts(t *testing.T) {
	const n = 2
	for _, tc := range []struct {
		name    string
		triples []rdf.Triple
	}{
		{"random base", randomTriples(rand.New(rand.NewSource(23)), 200)},
		{"one-subject base", []rdf.Triple{trp("only-s", "p", "o1"), trp("only-s", "p", "o2")}},
	} {
		base := buildFrom(t, tc.triples)
		known := tc.triples[0]
		d, err := base.NewDelta().ApplyOps([]DeltaOp{{Insert: true, Triples: []rdf.Triple{
			{S: known.S, P: known.P, O: rdf.NewIRI("http://example.org/new-object")},
			trp("new-s", "p", "o1"),
		}}})
		if err != nil {
			t.Fatal(err)
		}
		ov := d.Overlay()
		dir := t.TempDir()
		if err := WriteSharded(dir, NewSharded(ov, n)); err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := 0; i < n; i++ {
			sh, err := LoadAny(filepath.Join(dir, shardFileName(i)))
			if err != nil {
				t.Fatal(err)
			}
			if sh.Dict().Len() != ov.Dict().Len() {
				t.Fatalf("%s: shard %d's dictionary holds %d terms, want the overlay's %d", tc.name, i, sh.Dict().Len(), ov.Dict().Len())
			}
			got, _ := sh.Match(Pattern{})
			for _, tr := range got {
				if home := shardOf(tr.S, n); home != i {
					t.Fatalf("%s: shard %d holds %v, whose subject's home is shard %d", tc.name, i, tr, home)
				}
			}
			total += len(got)
		}
		if total != ov.Len() {
			t.Fatalf("%s: shard files hold %d triples, want the overlay's %d", tc.name, total, ov.Len())
		}
		equalStores(t, writeLoad(t, ov, n, true), d.Commit())
	}
}

// writeShardDir writes shards, stores over one dictionary, as a shard
// directory as they are, with a manifest that counts their triples.
func writeShardDir(t *testing.T, shards ...*Store) string {
	t.Helper()
	dir := t.TempDir()
	m := shardedManifest{Format: shardedFormat, Shards: len(shards)}
	for i, s := range shards {
		if err := writeShardFile(filepath.Join(dir, shardFileName(i)), s); err != nil {
			t.Fatal(err)
		}
		m.Triples += s.Len()
	}
	data, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, shardedManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// loadWithin runs LoadSharded under a deadline: a merge that stops making
// progress fails the test instead of hanging it.
func loadWithin(t *testing.T, dir string, heap bool) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		st, err := LoadSharded(dir, heap)
		if err == nil {
			if m := st.Mapping(); m != nil {
				m.Release()
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("heap=%v: LoadSharded of %s did not return", heap, dir)
		return nil
	}
}

// TestLoadShardedRejectsDuplicateTriple hand-builds a directory whose
// shards 0 and 1 both hold one triple: the open's merge cannot order it
// and fails with a *ShardError naming both shards, in both load modes.
// A mapped shard whose run is out of order fails the same way.
func TestLoadShardedRejectsDuplicateTriple(t *testing.T) {
	base := buildFrom(t, []rdf.Triple{trp("s1", "p", "o1"), trp("s2", "p", "o2"), trp("s3", "p", "o3")})
	all, _ := base.Match(Pattern{})
	shared := all[1]
	other := buildIndexes(base.Dict(), []IDTriple{shared})
	dir := writeShardDir(t, base, other)
	for _, heap := range []bool{true, false} {
		err := loadWithin(t, dir, heap)
		var se *ShardError
		if !errors.As(err, &se) || se.Shard != 0 || se.Other != 1 || se.Triple != shared || se.Dir != dir {
			t.Fatalf("heap=%v: LoadSharded of a duplicated triple: %v, want a ShardError for shards 0 and 1 holding %v", heap, err, shared)
		}
	}

	unsorted := buildIndexes(base.Dict(), all)
	unsorted.idx[orderSPO] = []IDTriple{all[2], all[0], all[1]}
	err := loadWithin(t, writeShardDir(t, unsorted), false)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 0 || se.Other != 0 || se.Order != "SPO" {
		t.Fatalf("LoadSharded of an unsorted run: %v, want a ShardError for shard 0's SPO run", err)
	}
}

// TestMergeShardRunsSortedUnion is the property test of the open's merge
// kernel: for every index order and several fan-ins, runs dealt from a
// sorted set in stretches of one triple or of up to 64 (so they
// interleave finely and coarsely, some of them empty) merge to exactly
// the sorted set.
func TestMergeShardRunsSortedUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 2, 3, 4, 7, 17} {
		for o := order(0); o < numOrders; o++ {
			set := map[IDTriple]struct{}{}
			for len(set) < 3000 {
				set[IDTriple{S: dict.ID(1 + rng.Intn(300)), P: dict.ID(1 + rng.Intn(4)), O: dict.ID(1 + rng.Intn(300))}] = struct{}{}
			}
			want := setToSlice(set)
			sortByOrder(want, o)
			runs := make([][]IDTriple, k)
			for rest := want; len(rest) > 0; {
				n := 1
				if rng.Intn(2) == 0 {
					n = 1 + rng.Intn(64)
				}
				n = min(n, len(rest))
				c := rng.Intn(k)
				runs[c] = append(runs[c], rest[:n]...)
				rest = rest[n:]
			}
			got, err := mergeShards(runs, o)
			if err != nil {
				t.Fatalf("k=%d %v: %v", k, o, err)
			}
			if !equalTriples(got, want) {
				t.Fatalf("k=%d %v: merged %d triples, want the sorted union of %d", k, o, len(got), len(want))
			}
		}
	}
}

// TestShardedMatchBufAllocs: probes into a store opened from a mapped
// shard directory stay allocation-free, subject-bound (through the
// subject directory) and object-bound.
func TestShardedMatchBufAllocs(t *testing.T) {
	base, _ := overlayWorld(t, 6, 4000)
	loaded := writeLoad(t, base, 4, false)
	all, _ := base.Match(Pattern{})
	for _, pat := range []Pattern{{S: all[len(all)/2].S}, {O: all[len(all)/3].O}} {
		var scratch, m []IDTriple
		m, scratch = loaded.MatchBuf(pat, scratch)
		if want, _ := base.Match(pat); !equalTriples(m, want) {
			t.Fatalf("MatchBuf(%v) = %v, want %v", pat, m, want)
		}
		if n := testing.AllocsPerRun(100, func() { m, scratch = loaded.MatchBuf(pat, scratch) }); n != 0 {
			t.Fatalf("MatchBuf(%v) allocates %.1f times per probe, want 0", pat, n)
		}
	}
}
