package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func trp(s, p, o string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}
}

// randomTriples produces a reproducible triple set with subject/predicate
// /object skew, rdf:type triples included.
func randomTriples(rng *rand.Rand, n int) []rdf.Triple {
	var out []rdf.Triple
	for i := 0; i < n; i++ {
		t := trp(
			fmt.Sprintf("s%d", rng.Intn(n/2+1)),
			fmt.Sprintf("p%d", rng.Intn(6)),
			fmt.Sprintf("o%d", rng.Intn(n/3+1)),
		)
		if rng.Intn(8) == 0 {
			t.P = rdf.NewIRI(rdf.RDFType)
			t.O = iri(fmt.Sprintf("Class%d", rng.Intn(3)))
		}
		out = append(out, t)
	}
	return out
}

func buildFrom(t *testing.T, triples []rdf.Triple) *Store {
	t.Helper()
	b := NewBuilder()
	for _, tr := range triples {
		if err := b.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// referenceStore rebuilds the merged triple set from scratch onto a fresh
// dictionary that is pre-seeded with the overlay dictionary's terms in ID
// order, so the rebuilt store assigns identical IDs — the strongest
// equivalence an overlay can be held to.
func referenceStore(t *testing.T, ov Source) *Store {
	t.Helper()
	b := NewBuilder()
	d := ov.Dict()
	for id := dict.ID(1); int(id) <= d.Len(); id++ {
		if got := b.Dict().Encode(d.Decode(id)); got != id {
			t.Fatalf("reference dict drift: %d != %d", got, id)
		}
	}
	matches, _ := ov.Match(Pattern{})
	for _, tr := range matches {
		b.AddID(tr)
	}
	return b.Build()
}

// applyRandomDelta mutates the store through a chain of random
// insert/delete batches, returning the final delta.
func applyRandomDelta(t testing.TB, rng *rand.Rand, st *Store, batches int) *Delta {
	t.Helper()
	d := st.NewDelta()
	for b := 0; b < batches; b++ {
		var ins, del []rdf.Triple
		cur, _ := d.Overlay().Match(Pattern{})
		for i := 0; i < 5+rng.Intn(10); i++ {
			ins = append(ins, randomTriples(rng, 30)[0])
		}
		for i := 0; i < rng.Intn(8) && len(cur) > 0; i++ {
			v := cur[rng.Intn(len(cur))]
			dd := st.Dict()
			del = append(del, rdf.Triple{S: dd.Decode(v.S), P: dd.Decode(v.P), O: dd.Decode(v.O)})
		}
		var err error
		d, err = d.Apply(ins, del)
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestDeltaApplySemantics(t *testing.T) {
	st := buildFrom(t, []rdf.Triple{trp("a", "p", "b"), trp("a", "p", "c")})
	d := st.NewDelta()

	// Inserting an existing triple is a no-op.
	d1, err := d.Apply([]rdf.Triple{trp("a", "p", "b")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Empty() {
		t.Fatalf("insert of existing triple should be a no-op, got size %d", d1.Size())
	}
	// Deleting an absent triple is a no-op (and must not grow the dict).
	dictLen := st.Dict().Len()
	d2, err := d.Apply(nil, []rdf.Triple{trp("nope", "nope", "nope")})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Empty() || st.Dict().Len() != dictLen {
		t.Fatal("delete of absent triple should be a no-op without dict growth")
	}
	// Delete then re-insert resurrects.
	d3, err := d.Apply(nil, []rdf.Triple{trp("a", "p", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if d3.DeleteCount() != 1 {
		t.Fatalf("DeleteCount = %d, want 1", d3.DeleteCount())
	}
	d4, err := d3.Apply([]rdf.Triple{trp("a", "p", "b")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d4.Empty() {
		t.Fatal("re-insert should cancel the pending delete")
	}
	// Insert then delete cancels.
	d5, err := d.Apply([]rdf.Triple{trp("x", "p", "y")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d6, err := d5.Apply(nil, []rdf.Triple{trp("x", "p", "y")})
	if err != nil {
		t.Fatal(err)
	}
	if !d6.Empty() {
		t.Fatal("delete should cancel the pending insert")
	}
	// The original delta was never mutated.
	if !d.Empty() || d3.DeleteCount() != 1 || d5.InsertCount() != 1 {
		t.Fatal("Apply mutated its receiver")
	}
	// Invalid triples are rejected.
	if _, err := d.Apply([]rdf.Triple{{}}, nil); err == nil {
		t.Fatal("invalid triple should be rejected")
	}
	// A no-op application returns the receiver itself, so callers can
	// detect "nothing changed" by pointer equality and skip republishing.
	if d1 != d || d2 != d {
		t.Fatal("no-op Apply should return the receiver")
	}
}

func TestDeltaApplyOps(t *testing.T) {
	st := buildFrom(t, []rdf.Triple{trp("a", "p", "b")})
	// Ops apply in order within one call: insert x, delete x, insert y.
	d, err := st.NewDelta().ApplyOps([]DeltaOp{
		{Insert: true, Triples: []rdf.Triple{trp("x", "p", "y")}},
		{Triples: []rdf.Triple{trp("x", "p", "y"), trp("a", "p", "b")}},
		{Insert: true, Triples: []rdf.Triple{trp("q", "p", "r")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.InsertCount() != 1 || d.DeleteCount() != 1 {
		t.Fatalf("counts = %d/%d, want 1/1", d.InsertCount(), d.DeleteCount())
	}
	ov := d.Overlay()
	if ov.Len() != 1 || ov.Count(Pattern{}) != 1 {
		t.Fatalf("overlay len = %d, want 1", ov.Len())
	}
	// A second application of semantically no-op ops returns d itself.
	d2, err := d.ApplyOps([]DeltaOp{
		{Insert: true, Triples: []rdf.Triple{trp("q", "p", "r")}}, // already inserted
		{Triples: []rdf.Triple{trp("nope", "p", "nope")}},         // absent
	})
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d {
		t.Fatal("no-op ApplyOps should return the receiver")
	}
	// Duplicate triples inside one op are a single change.
	d3, err := st.NewDelta().ApplyOps([]DeltaOp{
		{Insert: true, Triples: []rdf.Triple{trp("z", "p", "z"), trp("z", "p", "z")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d3.InsertCount() != 1 {
		t.Fatalf("InsertCount = %d, want 1", d3.InsertCount())
	}
}

// TestOverlayMatchesRebuild is the core overlay-correctness check: every
// read API of an overlaid store must agree exactly with a store rebuilt
// from scratch over the merged triple set (same dictionary IDs).
func TestOverlayMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := buildFrom(t, randomTriples(rng, 120))
		d := applyRandomDelta(t, rng, st, 3)
		ov := d.Overlay()
		ref := referenceStore(t, ov)

		if ov.Len() != ref.Len() {
			t.Fatalf("seed %d: Len %d != %d", seed, ov.Len(), ref.Len())
		}
		if !reflect.DeepEqual(ov.Predicates(), ref.Predicates()) {
			t.Fatalf("seed %d: Predicates diverge", seed)
		}
		for _, p := range ref.Predicates() {
			if ov.PredicateStats(p) != ref.PredicateStats(p) {
				t.Fatalf("seed %d: PredicateStats(%d) = %+v != %+v",
					seed, p, ov.PredicateStats(p), ref.PredicateStats(p))
			}
		}
		// Every pattern shape, over a sample of constants drawn from the
		// reference store.
		all, _ := ref.Match(Pattern{})
		pats := []Pattern{{}}
		for i := 0; i < 40 && i < len(all); i++ {
			tr := all[rng.Intn(len(all))]
			pats = append(pats,
				Pattern{S: tr.S}, Pattern{P: tr.P}, Pattern{O: tr.O},
				Pattern{S: tr.S, P: tr.P}, Pattern{S: tr.S, O: tr.O},
				Pattern{P: tr.P, O: tr.O}, Pattern{S: tr.S, P: tr.P, O: tr.O})
		}
		for _, pat := range pats {
			if ov.Count(pat) != ref.Count(pat) {
				t.Fatalf("seed %d: Count(%v) = %d != %d", seed, pat, ov.Count(pat), ref.Count(pat))
			}
			om, oo := ov.Match(pat)
			rm, ro := ref.Match(pat)
			if oo != ro {
				t.Fatalf("seed %d: Match(%v) order %v != %v", seed, pat, oo, ro)
			}
			if !equalTriples(om, rm) {
				t.Fatalf("seed %d: Match(%v) diverges:\noverlay %v\nrebuilt %v", seed, pat, om, rm)
			}
			for pos := 0; pos < 3; pos++ {
				if !reflect.DeepEqual(ov.DistinctValues(pos, pat), ref.DistinctValues(pos, pat)) {
					t.Fatalf("seed %d: DistinctValues(%d, %v) diverges", seed, pos, pat)
				}
			}
		}
		// Type index.
		if typeID, ok := ref.Dict().Lookup(rdf.NewIRI(rdf.RDFType)); ok {
			classes := ref.DistinctValues(2, Pattern{P: typeID})
			for _, c := range classes {
				if !reflect.DeepEqual(ov.SubjectsOfClass(c), ref.SubjectsOfClass(c)) {
					t.Fatalf("seed %d: SubjectsOfClass(%d) diverges", seed, c)
				}
			}
		}
		// Commit and Rebuild fold to the same store.
		com := d.Commit()
		if com.Delta() != nil || com.Len() != ref.Len() {
			t.Fatalf("seed %d: Commit produced delta=%v len=%d", seed, com.Delta(), com.Len())
		}
		cm, _ := com.Match(Pattern{})
		if !equalTriples(cm, all) {
			t.Fatalf("seed %d: Commit triple set diverges", seed)
		}
		rb := ov.Rebuild()
		rm2, _ := rb.Match(Pattern{})
		if !equalTriples(rm2, all) {
			t.Fatalf("seed %d: Rebuild over overlay diverges", seed)
		}
	}
}

func equalTriples(a, b []IDTriple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOverlayScanEquivalence checks the merge-on-read cursor against
// Match for every pattern shape, at several batch sizes.
func TestOverlayScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	st := buildFrom(t, randomTriples(rng, 150))
	d := applyRandomDelta(t, rng, st, 4)
	ov := d.Overlay()
	all, _ := ov.Match(Pattern{})
	pats := []Pattern{{}}
	for i := 0; i < 25; i++ {
		tr := all[rng.Intn(len(all))]
		pats = append(pats, Pattern{S: tr.S}, Pattern{P: tr.P}, Pattern{O: tr.O},
			Pattern{S: tr.S, P: tr.P}, Pattern{P: tr.P, O: tr.O}, Pattern{S: tr.S, O: tr.O})
	}
	for _, pat := range pats {
		want, _ := ov.Match(pat)
		for _, batch := range []int{0, 1, 3, 7, 1 << 20} {
			sc := ov.Scan(pat)
			if sc.Remaining() != len(want) {
				t.Fatalf("Scan(%v).Remaining = %d, want %d", pat, sc.Remaining(), len(want))
			}
			var got []IDTriple
			for {
				b := sc.Next(batch)
				if b == nil {
					break
				}
				got = append(got, b...) // copy out: the merge buffer is reused
			}
			if !equalTriples(got, want) {
				t.Fatalf("Scan(%v, batch %d) diverges from Match", pat, batch)
			}
		}
	}
}

func TestOverlayEmptyDelta(t *testing.T) {
	st := buildFrom(t, []rdf.Triple{trp("a", "p", "b")})
	d := st.NewDelta()
	if d.Overlay() != st || d.Commit() != st {
		t.Fatal("empty delta should publish the base store itself")
	}
	// NewDelta over an overlay extends the pending delta.
	d2, err := d.Apply([]rdf.Triple{trp("x", "q", "y")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ov := d2.Overlay()
	if ov.NewDelta() != d2 {
		t.Fatal("NewDelta over an overlay should return its pending delta")
	}
	if ov.Len() != 2 || ov.Count(Pattern{}) != 2 {
		t.Fatalf("overlay Len/Count = %d/%d, want 2/2", ov.Len(), ov.Count(Pattern{}))
	}
}
