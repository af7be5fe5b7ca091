package store

import (
	"math/rand"
	"reflect"
	"testing"

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

// checkSourceEquivalence asserts that sh and ref answer every read-path
// method identically — the stream-identity contract behind shard-count
// invariance.
func checkSourceEquivalence(t *testing.T, sh, ref Source) {
	t.Helper()
	if sh.Len() != ref.Len() {
		t.Fatalf("Len: %d != %d", sh.Len(), ref.Len())
	}
	for _, pat := range patternShapes(ref) {
		if got, want := sh.Count(pat), ref.Count(pat); got != want {
			t.Fatalf("Count(%+v): %d != %d", pat, got, want)
		}
		got, _ := sh.Match(pat)
		want, _ := ref.Match(pat)
		if !equalTriples(got, want) {
			t.Fatalf("Match(%+v): %v != %v", pat, got, want)
		}
		if got := drainScan(sh.Scan(pat)); !equalTriples(got, want) {
			t.Fatalf("Scan(%+v): %v != %v", pat, got, want)
		}
		gotBuf, _ := sh.MatchBuf(pat, make([]IDTriple, 0, 4))
		if !equalTriples(gotBuf, want) {
			t.Fatalf("MatchBuf(%+v): %v != %v", pat, gotBuf, want)
		}
		for _, n := range []int{1, 2, 3, 8, 64} {
			var cat []IDTriple
			for _, part := range sh.ScanPartitions(pat, n) {
				cat = append(cat, drainScan(part)...)
			}
			if !equalTriples(cat, want) {
				t.Fatalf("ScanPartitions(%+v, %d): concat %v != %v", pat, n, cat, want)
			}
		}
	}
	// Seekable trie cursors: drain in PSO and POS orders per predicate.
	for _, p := range ref.Predicates() {
		for _, varPos := range [][]int{{0, 2}, {2, 0}} {
			got := drainScan(sh.ScanSeek(Pattern{P: p}, varPos))
			want := drainScan(ref.ScanSeek(Pattern{P: p}, varPos))
			if !equalTriples(got, want) {
				t.Fatalf("ScanSeek(P=%d, %v): %v != %v", p, varPos, got, want)
			}
		}
	}
	if !reflect.DeepEqual(sh.Predicates(), ref.Predicates()) {
		t.Fatalf("Predicates: %v != %v", sh.Predicates(), ref.Predicates())
	}
	for _, p := range ref.Predicates() {
		if got, want := sh.PredicateStats(p), ref.PredicateStats(p); got != want {
			t.Fatalf("PredicateStats(%d): %+v != %+v", p, got, want)
		}
	}
	if tid, ok := ref.Dict().Lookup(rdf.NewIRI(rdf.RDFType)); ok {
		for _, c := range ref.DistinctValues(2, Pattern{P: tid}) {
			got := sh.SubjectsOfClass(c)
			want := ref.SubjectsOfClass(c)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("SubjectsOfClass(%d): %v != %v", c, got, want)
			}
		}
	}
	for pos := 0; pos < 3; pos++ {
		for _, pat := range patternShapes(ref)[:4] {
			got := sh.DistinctValues(pos, pat)
			want := ref.DistinctValues(pos, pat)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("DistinctValues(%d, %+v): %v != %v", pos, pat, got, want)
			}
		}
	}
}

func TestShardedReadEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := buildFrom(t, randomTriples(rng, 400))
	for _, n := range shardCounts {
		sh := NewSharded(ref, n)
		if sh.NumShards() != n {
			t.Fatalf("NumShards = %d, want %d", sh.NumShards(), n)
		}
		checkSourceEquivalence(t, sh, ref)
	}
}

func TestShardedOverlayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	triples := randomTriples(rng, 300)
	base := buildFrom(t, triples)

	// Identical op batches against the single store's delta and each
	// sharded delta; the overlays must stay read-equivalent, exact stats
	// included.
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

	for _, n := range shardCounts {
		sh := NewSharded(base, n)
		sd, err := sh.NewDelta().ApplyOps(ops)
		if err != nil {
			t.Fatal(err)
		}
		shOv := sd.Overlay()
		if gi, gd := shOv.Pending(); gi != d.InsertCount() || gd != d.DeleteCount() {
			t.Fatalf("shards=%d: pending (%d,%d) != (%d,%d)", n, gi, gd, d.InsertCount(), d.DeleteCount())
		}
		checkSourceEquivalence(t, shOv, refOv)

		// Committing folds every shard; the result must stay equivalent and
		// report no pending changes.
		shCommit := sd.Commit(BuildOptions{})
		if i, dd := shCommit.Pending(); i != 0 || dd != 0 {
			t.Fatalf("shards=%d: commit left pending (%d,%d)", n, i, dd)
		}
		checkSourceEquivalence(t, shCommit, refOv)

		// Publish folds exactly the shards whose delta reaches the
		// threshold; never folding is Overlay, always folding is Commit.
		for _, tc := range []struct {
			threshold int
			fold      bool
		}{{0, false}, {1 << 30, false}, {1, true}} {
			pub, compacted := sd.Publish(func(int) int { return tc.threshold }, BuildOptions{})
			if compacted != tc.fold {
				t.Fatalf("shards=%d threshold=%d: compacted %v, want %v", n, tc.threshold, compacted, tc.fold)
			}
			if i, dd := pub.Pending(); (i+dd == 0) != tc.fold {
				t.Fatalf("shards=%d threshold=%d: pending (%d,%d) after publish", n, tc.threshold, i, dd)
			}
			checkSourceEquivalence(t, pub, refOv)
		}

		// Updating the overlay again must extend the same per-shard deltas.
		sd2, err := shOv.NewDelta().ApplyOps([]DeltaOp{{Insert: true, Triples: randomTriples(rng, 10)}})
		if err != nil {
			t.Fatal(err)
		}
		if sd2.Size() <= sd.Size() {
			t.Fatalf("shards=%d: overlay update did not extend the pending delta", n)
		}
	}
}

func TestShardedApplyOpsNoChangeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	triples := randomTriples(rng, 50)
	for _, n := range []int{1, 4} {
		base := buildFrom(t, triples)
		sd := NewSharded(base, n).NewDelta()

		// Inserting present triples and deleting absent ones is a no-op;
		// the ShardedDelta must come back pointer-identical so the service
		// skips republishing.
		got, err := sd.ApplyOps([]DeltaOp{
			{Insert: true, Triples: triples[:5]},
			{Triples: []rdf.Triple{trp("nobody", "nothing", "nowhere")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != sd {
			t.Fatalf("shards=%d: no-change ApplyOps must return the receiver", n)
		}
		if _, ok := base.Dict().Lookup(iri("nobody")); ok {
			t.Fatalf("shards=%d: deleting an unknown subject must not grow the dictionary", n)
		}
	}
}

// Sharded updates that introduce new terms must assign exactly the IDs an
// unsharded update would: inserts are pre-encoded in operation order
// before routing. Two independent stores (separate dictionaries) built
// from the same input receive the same ops; their raw ID streams must
// coincide.
func TestShardedUpdateDictOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	triples := randomTriples(rng, 100)
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
	for _, n := range []int{1, 4} {
		sd, err := NewSharded(buildFrom(t, triples), n).NewDelta().ApplyOps(ops)
		if err != nil {
			t.Fatal(err)
		}
		shOv := sd.Overlay()
		if refOv.Dict().Len() != shOv.Dict().Len() {
			t.Fatalf("shards=%d: dict length %d != %d", n, shOv.Dict().Len(), refOv.Dict().Len())
		}
		got, _ := shOv.Match(Pattern{})
		if !equalTriples(got, want) {
			t.Fatalf("shards=%d: raw ID streams diverge: %v != %v", n, got, want)
		}
		for _, p := range refOv.Predicates() {
			if g, w := shOv.PredicateStats(p), refOv.PredicateStats(p); g != w {
				t.Fatalf("shards=%d: PredicateStats(%d): %+v != %+v", n, p, g, w)
			}
		}
	}
}

// NewSharded at one shard wraps the store itself: no re-partitioning, so
// a mapped store keeps its mapping and an overlay keeps its delta, and
// queries read the very same *Store.
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
		sh := NewSharded(st, 1)
		if sh.NumShards() != 1 || sh.Shard(0) != st || sh.Source() != Source(st) {
			t.Fatalf("%s: one-shard federation does not wrap the store itself", name)
		}
		if !reflect.DeepEqual(sh.Mappings(), st.Mappings()) {
			t.Fatalf("%s: Mappings %v, want %v", name, sh.Mappings(), st.Mappings())
		}
		if sh.Len() != st.Len() || sh.Dict() != st.Dict() {
			t.Fatalf("%s: Len/Dict differ from the wrapped store", name)
		}
		if i, dd := sh.Pending(); st.Delta() != nil && (i != st.Delta().InsertCount() || dd != st.Delta().DeleteCount()) {
			t.Fatalf("%s: pending (%d,%d) lost the overlay's delta", name, i, dd)
		}
		if Federate(st, 1).Shard(0) != st || Federate(sh, 4) != sh {
			t.Fatalf("%s: Federate re-wrapped its input", name)
		}
	}
}

func TestShardedSnapshotRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := buildFrom(t, randomTriples(rng, 250))
	sh := NewSharded(base, 4)
	dir := t.TempDir() + "/snap"
	if err := WriteSharded(dir, sh); err != nil {
		t.Fatal(err)
	}
	if !IsShardedSnapshot(dir) {
		t.Fatal("written directory not recognized as sharded snapshot")
	}
	if IsShardedSnapshot(dir + "/shard-0000.snap") {
		t.Fatal("plain shard file misdetected as sharded snapshot")
	}
	for _, heap := range []bool{true, false} {
		got, err := LoadSharded(dir, heap)
		if err != nil {
			t.Fatal(err)
		}
		checkSourceEquivalence(t, got, base)
		// All shards must share one dictionary object so sharded updates
		// agree on new-term IDs.
		for i := 0; i < got.NumShards(); i++ {
			if got.Shard(i).Dict() != got.Dict() {
				t.Fatalf("heap=%v: shard %d has its own dictionary", heap, i)
			}
		}
		if !heap {
			if n := len(got.Mappings()); n != 4 {
				t.Fatalf("mapped sharded load: %d mappings, want 4", n)
			}
			// Updates over the mapped federation must behave like heap ones.
			sd, err := got.NewDelta().ApplyOps([]DeltaOp{{Insert: true, Triples: []rdf.Triple{trp("zz", "zp", "zo")}}})
			if err != nil {
				t.Fatal(err)
			}
			if sd.InsertCount() != 1 {
				t.Fatalf("mapped sharded update: %d pending inserts", sd.InsertCount())
			}
			for _, m := range got.Mappings() {
				m.Release()
			}
		}
	}
}

func TestShardedBackendNaming(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := buildFrom(t, randomTriples(rng, 60))
	sh := NewSharded(base, 3)
	if got := sh.Backend(); got != "sharded(3, heap)" {
		t.Fatalf("Backend = %q", got)
	}
	if sh.BaseLen() != sh.Len() {
		t.Fatalf("BaseLen %d != Len %d for pristine shards", sh.BaseLen(), sh.Len())
	}
}
