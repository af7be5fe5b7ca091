package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
// subjects spread over the store — with many subjects every shard of a
// federation is some subject's home — plus one subject that does not
// occur.
func subjectPatterns(st Source) []Pattern {
	all, _ := st.Match(Pattern{})
	pats := []Pattern{{S: dict.ID(st.Dict().Len() + 1)}}
	for i := 0; i < len(all); i += len(all)/24 + 1 {
		t := all[i]
		pats = append(pats, Pattern{S: t.S}, Pattern{S: t.S, P: t.P}, Pattern{S: t.S, O: t.O}, Pattern{S: t.S, P: t.P, O: t.O})
	}
	return pats
}

// checkSourceEquivalence asserts that sh and ref answer every read-path
// method identically — the stream-identity contract behind shard-count
// invariance. Subject-bound patterns read only their home shard in a
// federation, so they are checked for many subjects.
func checkSourceEquivalence(t *testing.T, sh, ref Source) {
	t.Helper()
	if sh.Len() != ref.Len() {
		t.Fatalf("Len: %d != %d", sh.Len(), ref.Len())
	}
	for _, pat := range append(patternShapes(ref), subjectPatterns(ref)...) {
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
	}
	for _, pat := range subjectPatterns(ref) {
		for pos := 0; pos < 3; pos++ {
			if got, want := sh.DistinctValues(pos, pat), ref.DistinctValues(pos, pat); !reflect.DeepEqual(got, want) {
				t.Fatalf("DistinctValues(%d, %+v): %v != %v", pos, pat, got, want)
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
	// maxStackShards+1 shards take matchInto's heap-allocated cursor arrays.
	for _, n := range append(shardCounts, maxStackShards+1) {
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
	for _, shards := range shardCounts {
		dir := t.TempDir() + "/snap"
		if err := WriteSharded(dir, NewSharded(base, shards)); err != nil {
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
					t.Fatalf("shards=%d heap=%v: shard %d has its own dictionary", shards, heap, i)
				}
			}
			if !heap {
				if n := len(got.Mappings()); n != shards {
					t.Fatalf("mapped sharded load: %d mappings, want %d", n, shards)
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

// TestLoadShardedRejectsMisplacedShards swaps two shard files of a written
// directory: the dictionaries and the triple total still agree, so only
// the placement check can tell, in both load modes.
func TestLoadShardedRejectsMisplacedShards(t *testing.T) {
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
		_, err := LoadSharded(dir, heap)
		var pe *PlacementError
		if !errors.As(err, &pe) || pe.Shard != 0 || pe.Home == 0 {
			t.Fatalf("heap=%v: LoadSharded of swapped shards: %v, want a PlacementError for shard 0", heap, err)
		}
	}
}

// TestCheckPlacementOverlayInserts gives a shard a pending insertion of a
// subject homed elsewhere: once over the shard's own base and once over an
// empty base, so only the sampled insert run can catch it.
func TestCheckPlacementOverlayInserts(t *testing.T) {
	base := buildFrom(t, randomTriples(rand.New(rand.NewSource(23)), 200))
	one := buildFrom(t, []rdf.Triple{trp("only-s", "p", "o1"), trp("only-s", "p", "o2")})
	for _, tc := range []struct {
		name  string
		store *Store
	}{{"own base", base}, {"empty base", one}} {
		sh := NewSharded(tc.store, 2)
		all, _ := tc.store.Match(Pattern{})
		sub := all[0].S
		home := shardOf(sub, 2)
		other := sh.shards[1-home]
		if err := checkPlacement("d", other, 1-home, 2); err != nil {
			t.Fatalf("%s: pristine shard: %v", tc.name, err)
		}
		d := tc.store.Dict()
		misplaced := rdf.Triple{S: d.Decode(sub), P: d.Decode(all[0].P), O: rdf.NewIRI("http://example.org/new-object")}
		nd, err := other.NewDelta().ApplyOps([]DeltaOp{{Insert: true, Triples: []rdf.Triple{misplaced}}})
		if err != nil {
			t.Fatal(err)
		}
		var pe *PlacementError
		if err := checkPlacement("d", nd.Overlay(), 1-home, 2); !errors.As(err, &pe) || pe.Subject != sub || pe.Home != home {
			t.Fatalf("%s: overlay with a misplaced insertion: %v, want a PlacementError for subject %d", tc.name, err, sub)
		}
	}
}

// mergeWorld deals a sorted random triple set (in order o) to k child
// cursors in stretches of one triple or of up to 64, so runs interleave
// both finely and coarsely. With overlays, even-numbered children are
// overlay cursors: part of their stretch arrives as pending insertions,
// and deleted triples that must not surface are mixed into their base
// run. It returns the children and the union they must merge to.
func mergeWorld(rng *rand.Rand, o order, k int, overlays bool) ([]Scan, []IDTriple) {
	set := map[IDTriple]struct{}{}
	for len(set) < 3000 {
		set[IDTriple{S: dict.ID(1 + rng.Intn(300)), P: dict.ID(1 + rng.Intn(4)), O: dict.ID(1 + rng.Intn(300))}] = struct{}{}
	}
	all := setToSlice(set)
	sortByOrder(all, o)
	children := make([]Scan, k)
	for i := range children {
		children[i].ord = o
	}
	var union []IDTriple
	for len(all) > 0 {
		n := 1
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(64)
		}
		n = min(n, len(all))
		c := rng.Intn(k)
		overlay := overlays && c%2 == 0
		for _, t := range all[:n] {
			sc := &children[c]
			switch r := rng.Intn(10); {
			case overlay && r < 2:
				sc.rest = append(sc.rest, t)
				sc.del = append(sc.del, t)
			case overlay && r < 5:
				sc.ins = append(sc.ins, t)
				union = append(union, t)
			default:
				sc.rest = append(sc.rest, t)
				union = append(union, t)
			}
		}
		all = all[n:]
	}
	return children, union
}

// TestMergeIntoSortedUnion is the property test of the merge kernel: for
// every index order, fan-ins below and above the stack array, plain and
// overlay children and several batch sizes, a merged cursor delivers
// exactly the sorted union of its children, and Head always announces the
// next triple Next delivers.
func TestMergeIntoSortedUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 2, 3, 4, 7, maxStackShards + 1} {
		for _, overlays := range []bool{false, true} {
			for _, batch := range []int{1, 3, 1024} {
				for o := order(0); o < numOrders; o++ {
					children, want := mergeWorld(rng, o, k, overlays)
					sc := mergeScans(children, o)
					var got []IDTriple
					for {
						head, ok := sc.Head()
						b := sc.Next(batch)
						if ok != (b != nil) || (ok && head != b[0]) {
							t.Fatalf("k=%d overlays=%v batch=%d %v: Head %v/%v before batch %v", k, overlays, batch, o, head, ok, b)
						}
						if b == nil {
							break
						}
						got = append(got, b...)
					}
					if !equalTriples(got, want) {
						t.Fatalf("k=%d overlays=%v batch=%d %v: merged %d triples, want the sorted union of %d", k, overlays, batch, o, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestShardedMatchBufAllocs is the allocation regression test for probes
// into a federation: a subject-bound probe reads its home shard
// zero-copy, and an object-bound one opens its shard cursors in stack
// arrays and merges into the caller's scratch.
func TestShardedMatchBufAllocs(t *testing.T) {
	base, _ := overlayWorld(t, 6, 4000)
	sh := NewSharded(base, 4)
	all, _ := base.Match(Pattern{})
	subj := Pattern{S: all[len(all)/2].S}
	var obj Pattern
	for _, tr := range all {
		if m, _ := sh.Match(Pattern{O: tr.O}); len(m) > 1 && shardOf(m[0].S, 4) != shardOf(m[len(m)-1].S, 4) {
			obj = Pattern{O: tr.O}
			break
		}
	}
	if obj.O == dict.None {
		t.Fatal("no object whose matches span two shards")
	}
	for _, pat := range []Pattern{subj, obj} {
		var scratch, m []IDTriple
		m, scratch = sh.MatchBuf(pat, scratch)
		if want, _ := base.Match(pat); !equalTriples(m, want) {
			t.Fatalf("MatchBuf(%v) = %v, want %v", pat, m, want)
		}
		if n := testing.AllocsPerRun(100, func() { m, scratch = sh.MatchBuf(pat, scratch) }); n != 0 {
			t.Fatalf("MatchBuf(%v) on 4 shards allocates %.1f times per probe, want 0", pat, n)
		}
	}
}
