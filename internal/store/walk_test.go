package store

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// walkWorld builds a store whose subjects own groups of exactly the sizes
// around walkLimit, and returns it with the subjects in size order. The
// subject of the empty group is a dictionary ID that is never a subject.
// Triple i of a group has predicate 20+i%5 and object 30+i/3, so every
// predicate and every object spans several triples and some (P, O) pairs
// fall between two triples of the group.
func walkWorld(t testing.TB) (*Store, []dict.ID) {
	t.Helper()
	b := NewBuilder()
	for id := 1; id <= 400; id++ {
		if got := b.Dict().Encode(rdf.NewIRI(fmt.Sprintf("http://walk/t%d", id))); int(got) != id {
			t.Fatalf("term %d got ID %d", id, got)
		}
	}
	sizes := []int{0, 1, 2, walkLimit - 1, walkLimit, walkLimit + 1, 200}
	var subjects []dict.ID
	for k, n := range sizes {
		s := dict.ID(10 + k)
		subjects = append(subjects, s)
		for i := 0; i < n; i++ {
			b.AddID(IDTriple{S: s, P: dict.ID(20 + i%5), O: dict.ID(30 + i/3)})
		}
	}
	st := b.Build()
	for k, s := range subjects {
		if n := st.Count(Pattern{S: s}); n != sizes[k] {
			t.Fatalf("subject %d holds %d triples, want %d", s, n, sizes[k])
		}
	}
	return st, subjects
}

// walkProbes returns the probe values for the non-subject components of
// a group: every P and O of it with both neighbours, 1, and the top of
// uint32.
func walkProbes(st *Store, s dict.ID) []dict.ID {
	vals := []dict.ID{1, math.MaxUint32 - 1, math.MaxUint32}
	g, _ := st.Match(Pattern{S: s})
	for _, tr := range g {
		for _, x := range []dict.ID{tr.P, tr.O} {
			vals = append(vals, x-1, x, x+1)
		}
	}
	slices.Sort(vals)
	return slices.Compact(vals)
}

// TestBaseRangeWalkBoundaries pins the in-group walk at its edges: groups
// of 0, 1, 2, walkLimit-1, walkLimit, walkLimit+1 and 200 triples, probed
// in every subject-bound shape (S; S,P and S,P,O through SPO; S,O and
// S,O,P through SOP) with keys below the first triple, between triples,
// equal to one, above the last and at MaxUint32. Heap, mapped and overlay
// stores must all answer the linear filter's range and searchRange's.
func TestBaseRangeWalkBoundaries(t *testing.T) {
	heap, subjects := walkWorld(t)
	mapped, err := OpenMappedBytes(v4Image(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	// The overlay's pending triples belong to a subject outside the
	// groups under test; its base runs are the heap store's.
	d, err := heap.NewDelta().Apply([]rdf.Triple{{
		S: rdf.NewIRI("http://walk/t300"), P: rdf.NewIRI("http://walk/t20"), O: rdf.NewIRI("http://walk/t31"),
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	overlay := d.Overlay()
	for _, c := range []struct {
		label string
		st    *Store
	}{{"heap", heap}, {"mapped", mapped}, {"overlay", overlay}} {
		for _, s := range subjects {
			vals := walkProbes(heap, s)
			for _, o := range []order{orderSPO, orderSOP} {
				idx := c.st.idx[o]
				check := func(k [3]dict.ID, nb int) {
					pat := patternOf(o, k, nb)
					lo, hi := c.st.baseRange(o, pat)
					wlo, whi := linearRange(idx, o, k, nb)
					if lo != wlo || hi != whi {
						t.Fatalf("%s %v: baseRange(%v) = [%d, %d), linear filter [%d, %d)", c.label, o, pat, lo, hi, wlo, whi)
					}
					if slo, shi := searchRange(idx, o, pat); lo != slo || hi != shi {
						t.Fatalf("%s %v: baseRange(%v) = [%d, %d), searchRange [%d, %d)", c.label, o, pat, lo, hi, slo, shi)
					}
				}
				check([3]dict.ID{s}, 1)
				for _, x := range vals {
					check([3]dict.ID{s, x}, 2)
					for _, y := range vals {
						check([3]dict.ID{s, x, y}, 3)
					}
				}
			}
		}
	}
}

// FuzzBaseRange checks baseRange on a small fuzzed triple set against the
// linear filter, on a heap store and on a mapped open of its v4 image.
// Each three bytes of data make one triple over the IDs 1..16, so subject
// groups are short and dense. The probe binds S to an ID of 1..17 (17 is
// past the dictionary), 100 (past the subject directory's end) or the top
// of uint32, and P and O to 0 (unbound), 1..16 or the top of uint32.
func FuzzBaseRange(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 4, 1, 3, 3, 2, 2, 2}, uint8(1), uint8(2), uint8(3))
	f.Add([]byte{5, 5, 5}, uint8(5), uint8(0), uint8(17))
	f.Add([]byte{}, uint8(18), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, s, p, o uint8) {
		const ids = 16
		if len(data) > 3*200 {
			data = data[:3*200]
		}
		b := NewBuilder()
		for id := 1; id <= ids; id++ {
			b.Dict().Encode(rdf.NewIRI(fmt.Sprintf("http://fuzz/t%d", id)))
		}
		for i := 0; i+2 < len(data); i += 3 {
			b.AddID(IDTriple{S: dict.ID(1 + data[i]%ids), P: dict.ID(1 + data[i+1]%ids), O: dict.ID(1 + data[i+2]%ids)})
		}
		heap := b.Build()
		mapped, err := OpenMappedBytes(v4Image(t, heap))
		if err != nil {
			t.Fatal(err)
		}
		component := func(v uint8) dict.ID {
			if v %= ids + 2; v == ids+1 {
				return math.MaxUint32
			}
			return dict.ID(v)
		}
		pat := Pattern{S: dict.ID(1 + s%(ids+3)), P: component(p), O: component(o)}
		switch pat.S {
		case ids + 2:
			pat.S = 100
		case ids + 3:
			pat.S = math.MaxUint32
		}
		orders := []order{orderFor(pat.boundMask())}
		if pat.P != dict.None && pat.O != dict.None {
			orders = append(orders, orderSOP) // S,O,P: the other full prefix
		}
		for _, st := range []*Store{heap, mapped} {
			for _, ord := range orders {
				k, nb := prefixBounds(ord, pat)
				wlo, whi := linearRange(st.idx[ord], ord, k, nb)
				if lo, hi := st.baseRange(ord, pat); lo != wlo || hi != whi {
					t.Fatalf("%s %v: baseRange(%v) = [%d, %d), linear filter [%d, %d)", st.Backend(), ord, pat, lo, hi, wlo, whi)
				}
			}
		}
	})
}
