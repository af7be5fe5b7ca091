package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// naiveMerge is the reference for mergeRuns: (run − rem) ∪ add by a set
// filter and a plain two-pointer merge.
func naiveMerge(run, rem, add []IDTriple, o order) []IDTriple {
	dead := make(map[IDTriple]bool, len(rem))
	for _, t := range rem {
		dead[t] = true
	}
	var out []IDTriple
	for len(run) > 0 || len(add) > 0 {
		switch {
		case len(run) > 0 && dead[run[0]]:
			run = run[1:]
		case len(run) == 0 || (len(add) > 0 && lessByOrder(add[0], run[0], o)):
			out = append(out, add[0])
			add = add[1:]
		default:
			out = append(out, run[0])
			run = run[1:]
		}
	}
	return out
}

// TestMergeRunsMatchesNaive checks the run-copy kernel against the naive
// merge on random runs of every order, drained in random batch sizes,
// including empty runs, removes at either end and a fully removed run.
func TestMergeRunsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type shape struct {
		name       string
		nRun, nAdd int
		remove     func(run []IDTriple) []IDTriple
	}
	some := func(run []IDTriple) []IDTriple {
		var out []IDTriple
		for _, t := range run {
			if rng.Intn(4) == 0 {
				out = append(out, t)
			}
		}
		return out
	}
	ends := func(run []IDTriple) []IDTriple {
		if len(run) < 2 {
			return run
		}
		return []IDTriple{run[0], run[len(run)-1]}
	}
	all := func(run []IDTriple) []IDTriple { return run }
	none := func([]IDTriple) []IDTriple { return nil }
	shapes := []shape{
		{name: "empty", remove: none},
		{name: "run only", nRun: 50, remove: none},
		{name: "add only", nAdd: 50, remove: none},
		{name: "mixed", nRun: 200, nAdd: 40, remove: some},
		{name: "removes at ends", nRun: 60, nAdd: 10, remove: ends},
		{name: "fully removed", nRun: 40, remove: all},
		{name: "fully removed plus adds", nRun: 40, nAdd: 40, remove: all},
		{name: "adds dominate", nRun: 5, nAdd: 300, remove: some},
		{name: "single", nRun: 1, nAdd: 1, remove: all},
	}
	for _, sh := range shapes {
		for o := order(0); o < numOrders; o++ {
			for trial := 0; trial < 20; trial++ {
				seen := map[IDTriple]bool{}
				draw := func(n int) []IDTriple {
					var out []IDTriple
					for len(out) < n {
						tr := IDTriple{S: dict.ID(1 + rng.Intn(30)), P: dict.ID(1 + rng.Intn(4)), O: dict.ID(1 + rng.Intn(60))}
						if !seen[tr] {
							seen[tr] = true
							out = append(out, tr)
						}
					}
					sortByOrder(out, o)
					return out
				}
				run, add := draw(sh.nRun), draw(sh.nAdd)
				rem := sh.remove(run)
				want := naiveMerge(run, rem, add, o)
				// Drain in random batch sizes; the kernel must resume
				// exactly where the last batch stopped.
				r, d, a := run, rem, add
				var got []IDTriple
				for len(r) > 0 || len(a) > 0 {
					got = mergeRuns(got, 1+rng.Intn(7), &r, &d, &a, orderPositions[o])
				}
				if len(d) != 0 {
					t.Fatalf("%s %v: %d removes left unconsumed", sh.name, o, len(d))
				}
				if !equalTriples(got, want) {
					t.Fatalf("%s %v: batched kernel\n%v\nwant\n%v", sh.name, o, got, want)
				}
				if whole := applyRun(run, rem, add, o); !equalTriples(whole, want) {
					t.Fatalf("%s %v: applyRun\n%v\nwant\n%v", sh.name, o, whole, want)
				}
			}
		}
	}
}

// chainWorld drives a random update stream over a store and checks,
// after every step, that the published view's statistics equal a
// from-scratch rebuild's.
type chainWorld struct {
	t       *testing.T
	rng     *rand.Rand
	d       *Delta
	view    *Store
	deleted []rdf.Triple // triples once deleted, candidates for resurrection
}

func (w *chainWorld) dict() *dict.Dict { return w.view.Dict() }

func (w *chainWorld) decode(t IDTriple) rdf.Triple {
	d := w.dict()
	return rdf.Triple{S: d.Decode(t.S), P: d.Decode(t.P), O: d.Decode(t.O)}
}

// matching returns every triple of the current view matching pat.
func (w *chainWorld) matching(pat Pattern) []rdf.Triple {
	cur, _ := w.view.Match(pat)
	out := make([]rdf.Triple, len(cur))
	for i, t := range cur {
		out[i] = w.decode(t)
	}
	return out
}

// present returns up to n random triples of the current view.
func (w *chainWorld) present(n int, pat Pattern) []rdf.Triple {
	cur, _ := w.view.Match(pat)
	var out []rdf.Triple
	for i := 0; i < n && len(cur) > 0; i++ {
		out = append(out, w.decode(cur[w.rng.Intn(len(cur))]))
	}
	return out
}

// ops draws step k's operation sequence: inserts, deletes, resurrections,
// cancellations inside one call, rdf:type edits, a brand-new predicate
// and a predicate driven to zero.
func (w *chainWorld) ops(k int) []DeltaOp {
	rng := w.rng
	typ := rdf.NewIRI(rdf.RDFType)
	var ops []DeltaOp
	ins := func(ts ...rdf.Triple) { ops = append(ops, DeltaOp{Insert: true, Triples: ts}) }
	del := func(ts ...rdf.Triple) {
		ops = append(ops, DeltaOp{Triples: ts})
		w.deleted = append(w.deleted, ts...)
	}
	switch {
	case k%50 == 10: // a brand-new predicate
		p := iri(fmt.Sprintf("fresh%d", k))
		ins(rdf.Triple{S: iri("s1"), P: p, O: iri("o1")}, rdf.Triple{S: iri("s2"), P: p, O: iri("o1")},
			rdf.Triple{S: iri("s2"), P: p, O: iri(fmt.Sprintf("fresh-o%d", k))})
	case k%50 == 30: // drive that predicate to zero
		if pid, ok := w.dict().Lookup(iri(fmt.Sprintf("fresh%d", k-20))); ok {
			del(w.matching(Pattern{P: pid})...)
		}
	case k%50 == 40: // drive an original predicate to zero, then back
		if pid, ok := w.dict().Lookup(iri("p5")); ok {
			del(w.matching(Pattern{P: pid})...)
		}
		ins(trp("s3", "p5", "o3"))
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		switch rng.Intn(6) {
		case 0, 1:
			ins(randomTriples(rng, 40)[:1+rng.Intn(6)]...)
		case 2:
			del(w.present(1+rng.Intn(5), Pattern{})...)
		case 3: // resurrect earlier deletions
			if len(w.deleted) > 0 {
				ins(w.deleted[rng.Intn(len(w.deleted))], w.deleted[rng.Intn(len(w.deleted))])
			}
		case 4: // insert and cancel within one call
			tr := rdf.Triple{S: iri(fmt.Sprintf("c%d", k)), P: iri(fmt.Sprintf("p%d", rng.Intn(6))), O: iri("cancelled")}
			ins(tr)
			del(tr)
		case 5: // rdf:type edits
			s := iri(fmt.Sprintf("s%d", rng.Intn(40)))
			c := iri(fmt.Sprintf("Class%d", rng.Intn(4)))
			if rng.Intn(2) == 0 {
				ins(rdf.Triple{S: s, P: typ, O: c})
			} else if tid, ok := w.dict().Lookup(typ); ok {
				del(w.present(2, Pattern{P: tid})...)
			}
		}
	}
	return ops
}

// check compares the view with a rebuild: Len, Count over every pattern
// shape, the predicate list and statistics and every class.
func (w *chainWorld) check(k int) {
	t := w.t
	t.Helper()
	ref := referenceStore(t, w.view)
	label := fmt.Sprintf("step %d", k)
	if w.view.Len() != ref.Len() {
		t.Fatalf("%s: Len %d != %d", label, w.view.Len(), ref.Len())
	}
	if ref.Len() > 0 {
		for _, pat := range patternShapes(ref) {
			if got, want := w.view.Count(pat), ref.Count(pat); got != want {
				t.Fatalf("%s: Count(%v) %d != %d", label, pat, got, want)
			}
		}
	}
	sameStats(t, label, w.view, ref)
}

// sameStats asserts got reports ref's predicate list, statistics and
// rdf:type class members.
func sameStats(t *testing.T, label string, got Source, ref *Store) {
	t.Helper()
	if !slices.Equal(got.Predicates(), ref.Predicates()) {
		t.Fatalf("%s: Predicates %v != %v", label, got.Predicates(), ref.Predicates())
	}
	for _, p := range ref.Predicates() {
		if g, r := got.PredicateStats(p), ref.PredicateStats(p); g != r {
			t.Fatalf("%s: PredicateStats(%d) %+v != %+v", label, p, g, r)
		}
	}
	classes := 0
	if tid, ok := ref.Dict().Lookup(rdf.NewIRI(rdf.RDFType)); ok {
		for _, c := range ref.DistinctValues(2, Pattern{P: tid}) {
			if g, r := got.SubjectsOfClass(c), ref.SubjectsOfClass(c); !slices.Equal(g, r) {
				t.Fatalf("%s: SubjectsOfClass(%d) %v != %v", label, c, g, r)
			}
			classes++
		}
	}
	// A class that emptied must be gone, not left behind with no members.
	if s, ok := got.(*Store); ok && len(s.typeIdx) != classes {
		t.Fatalf("%s: %d classes indexed, want %d", label, len(s.typeIdx), classes)
	}
}

// TestDeltaStatsChain is the equivalence test for carried statistics: a
// long random update chain, compacting now and then, must report exactly
// a rebuild's Len, Count, PredicateStats and SubjectsOfClass after every
// single step.
func TestDeltaStatsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	base := buildFrom(t, randomTriples(rng, 200))
	w := &chainWorld{t: t, rng: rng, d: base.NewDelta(), view: base}
	for k := 0; k < 220; k++ {
		d, err := w.d.ApplyOps(w.ops(k))
		if err != nil {
			t.Fatal(err)
		}
		if k%60 == 59 {
			// Fold: the committed store reuses the carried statistics and
			// the next delta starts from them.
			w.view = d.Commit()
			w.d = w.view.NewDelta()
		} else {
			w.d, w.view = d, d.Overlay()
		}
		w.check(k)
	}
}

// TestTypeIndexAfterUnrelatedPublishes: one rdf:type insert followed by
// many publishes that touch no class must keep SubjectsOfClass equal to a
// rebuild — the class list is patched once and then shared.
func TestTypeIndexAfterUnrelatedPublishes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := buildFrom(t, randomTriples(rng, 300))
	d, err := st.NewDelta().Apply([]rdf.Triple{{S: iri("newcomer"), P: rdf.NewIRI(rdf.RDFType), O: iri("Class1")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if d, err = d.Apply([]rdf.Triple{trp(fmt.Sprintf("u%d", i), "p1", "o1")}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ov := d.Overlay()
	ref := referenceStore(t, ov)
	cid, _ := st.Dict().Lookup(iri("Class1"))
	if got := ov.SubjectsOfClass(cid); !slices.Equal(got, ref.SubjectsOfClass(cid)) || len(got) == 0 {
		t.Fatalf("SubjectsOfClass after unrelated publishes: %v != %v", got, ref.SubjectsOfClass(cid))
	}
	sameStats(t, "after 50 publishes", ov, ref)
}

// checkCommitIsBuild asserts that Commit is byte-identical to building
// the merged triple set: all six runs, statistics, class index and size.
func checkCommitIsBuild(t *testing.T, label string, d *Delta) {
	t.Helper()
	merged, _ := d.Overlay().Match(Pattern{})
	for _, procs := range []int{1, 3} {
		var want, got *Store
		atProcs(procs, func() {
			want = buildIndexes(d.Base().Dict(), slices.Clone(merged))
			got = d.Commit()
		})
		if got.Delta() != nil || got.Backend() != "heap" {
			t.Fatalf("%s: commit is %s with delta %v", label, got.Backend(), got.Delta())
		}
		equalStores(t, got, want)
	}
}

func TestCommitMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	heap := buildFrom(t, randomTriples(rng, 400))
	checkCommitIsBuild(t, "heap base", applyRandomDelta(t, rng, heap, 6))

	mapped, err := OpenMappedBytes(v4Image(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	checkCommitIsBuild(t, "mapped base", applyRandomDelta(t, rng, mapped, 6))
}
