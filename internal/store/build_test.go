package store

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// randomBuilder fills a builder with deterministic pseudo-random triples,
// including rdf:type assignments that interleave classes across subjects.
func randomBuilder(seed int64, n int) *Builder {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	d := b.Dict()
	typeID := rdf.NewIRI(rdf.RDFType)
	for i := 0; i < n; i++ {
		b.AddID(IDTriple{
			S: d.Encode(rdf.NewIRI(randName(rng, "s", 60))),
			P: d.Encode(rdf.NewIRI(randName(rng, "p", 9))),
			O: d.Encode(rdf.NewIRI(randName(rng, "o", 80))),
		})
		if rng.Intn(4) == 0 {
			b.AddID(IDTriple{
				S: d.Encode(rdf.NewIRI(randName(rng, "s", 60))),
				P: d.Encode(typeID),
				O: d.Encode(rdf.NewIRI(randName(rng, "C", 3))),
			})
		}
	}
	return b
}

// equalStores compares every observable surface of two stores built over
// the same dictionary: indexes, counts, statistics and the type index.
func equalStores(t *testing.T, a, b *Store) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
	for o := order(0); o < numOrders; o++ {
		x, y := a.idx[o], b.idx[o]
		if len(x) != len(y) {
			t.Fatalf("index %v: %d vs %d triples", o, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("index %v diverges at %d: %v vs %v", o, i, x[i], y[i])
			}
		}
	}
	if len(a.pstats) != len(b.pstats) {
		t.Fatalf("pstats size %d vs %d", len(a.pstats), len(b.pstats))
	}
	for p, st := range a.pstats {
		if b.pstats[p] != st {
			t.Fatalf("pstats[%d] %+v vs %+v", p, st, b.pstats[p])
		}
	}
	if a.typeID != b.typeID {
		t.Fatalf("typeID %d vs %d", a.typeID, b.typeID)
	}
	if len(a.typeIdx) != len(b.typeIdx) {
		t.Fatalf("typeIdx size %d vs %d", len(a.typeIdx), len(b.typeIdx))
	}
	for c, xs := range a.typeIdx {
		ys := b.typeIdx[c]
		if len(xs) != len(ys) {
			t.Fatalf("class %d: %d vs %d members", c, len(xs), len(ys))
		}
		for i := range xs {
			if xs[i] != ys[i] {
				t.Fatalf("class %d member %d: %d vs %d", c, i, xs[i], ys[i])
			}
		}
	}
}

// atProcs runs f with runtime.GOMAXPROCS set to procs, which bounds the
// build's and Commit's concurrent sorts, and restores the previous setting.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// The parallel build is byte-identical to a serial reference — each
// permutation sorted in turn, then computeStats — at every GOMAXPROCS,
// including one worker and prime counts that leave sorts queued behind the
// semaphore.
func TestBuildParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		b := randomBuilder(seed, 3000)
		want := &Store{dict: b.Dict(), n: len(b.triples)}
		for o := order(0); o < numOrders; o++ {
			want.idx[o] = slices.Clone(b.triples)
			sortByOrder(want.idx[o], o)
		}
		want.computeStats()
		for _, procs := range []int{1, 2, 3, 16} {
			var got *Store
			atProcs(procs, func() { got = randomBuilder(seed, 3000).Build() })
			equalStores(t, want, got)
		}
	}
}

// Rebuild over the same dictionary must reproduce the original store
// exactly, whichever worker count rebuilt it.
func TestRebuildRoundTrip(t *testing.T) {
	st, _ := buildTestStore(t)
	equalStores(t, st, st.Rebuild())
	atProcs(1, func() { equalStores(t, st, st.Rebuild()) })
}

// Regression: SubjectsOfClass dropped members when rdf:type assignments
// interleaved classes across subject IDs — the old stats pass grouped by
// class over a subject-ordered index, so only the last run of a class
// survived.
func TestSubjectsOfClassInterleaved(t *testing.T) {
	b := NewBuilder()
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://x/" + n) }
	typ := rdf.NewIRI(rdf.RDFType)
	for _, st := range [][2]string{{"s1", "A"}, {"s2", "B"}, {"s3", "A"}, {"s4", "B"}, {"s5", "A"}} {
		if err := b.Add(rdf.NewTriple(iri(st[0]), typ, iri(st[1]))); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Build()
	idA, _ := st.Dict().Lookup(iri("A"))
	idB, _ := st.Dict().Lookup(iri("B"))
	if got := st.SubjectsOfClass(idA); len(got) != 3 {
		t.Fatalf("class A members = %v, want 3", got)
	}
	if got := st.SubjectsOfClass(idB); len(got) != 2 {
		t.Fatalf("class B members = %v, want 2", got)
	}
	// Members are sorted subject IDs.
	for _, c := range []dict.ID{idA, idB} {
		ms := st.SubjectsOfClass(c)
		for i := 1; i < len(ms); i++ {
			if ms[i] <= ms[i-1] {
				t.Fatalf("class %d members not sorted/unique: %v", c, ms)
			}
		}
	}
}

// DistinctValues must agree between the grouped (run-head) fast path and
// the map-and-sort slow path; exercise both against a naive computation
// for every position and pattern shape.
func TestDistinctValuesGroupedMatchesUngrouped(t *testing.T) {
	st := randomBuilder(11, 1500).Build()
	all, _ := st.Match(Pattern{})
	somePred := all[0].P
	someSubj := all[0].S
	pats := []Pattern{{}, {P: somePred}, {S: someSubj}, {S: someSubj, P: somePred}}
	for _, pat := range pats {
		for pos := 0; pos < 3; pos++ {
			naive := map[dict.ID]struct{}{}
			m, _ := st.Match(pat)
			for _, tr := range m {
				naive[positionValue(tr, pos)] = struct{}{}
			}
			got := st.DistinctValues(pos, pat)
			if len(got) != len(naive) {
				t.Fatalf("pat %v pos %d: %d distinct, naive %d", pat, pos, len(got), len(naive))
			}
			for i, v := range got {
				if _, ok := naive[v]; !ok {
					t.Fatalf("pat %v pos %d: unexpected value %d", pat, pos, v)
				}
				if i > 0 && got[i-1] >= v {
					t.Fatalf("pat %v pos %d: result not sorted/unique", pat, pos)
				}
			}
		}
	}
}
