package store

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// checkBaseRange compares st.baseRange with linearRange and searchRange
// over st's base run of every order, for every probe forEachProbe makes
// with the edge subjects 1, Dict.Len(), Dict.Len()+1 and MaxUint32 added.
func checkBaseRange(t *testing.T, label string, st *Store, extra ...dict.ID) {
	t.Helper()
	n := dict.ID(st.Dict().Len())
	extra = append(extra, 1, n, n+1, math.MaxUint32)
	for o := order(0); o < numOrders; o++ {
		idx := st.idx[o]
		forEachProbe(idx, o, extra, func(pat Pattern, wantLo, wantHi int) {
			lo, hi := st.baseRange(o, pat)
			if lo != wantLo || hi != wantHi {
				t.Fatalf("%s %v: baseRange(%v) = [%d, %d), linear filter [%d, %d) of %d", label, o, pat, lo, hi, wantLo, wantHi, len(idx))
			}
			if slo, shi := searchRange(idx, o, pat); lo != slo || hi != shi {
				t.Fatalf("%s %v: baseRange(%v) = [%d, %d), searchRange [%d, %d)", label, o, pat, lo, hi, slo, shi)
			}
		})
	}
}

// TestBaseRangeMatchesSearchRange is the property test of the subject
// directory: over every backing a base run can have, the directory-narrowed
// lookup answers exactly what a search of the whole run does.
func TestBaseRangeMatchesSearchRange(t *testing.T) {
	base, overlay := overlayWorld(t, 11, 1500)
	mapped, err := OpenMappedBytes(v4Image(t, base))
	if err != nil {
		t.Fatal(err)
	}
	checkBaseRange(t, "heap", base)
	checkBaseRange(t, "mapped", mapped)
	checkBaseRange(t, "overlay", overlay)
	checkBaseRange(t, "empty", NewBuilder().Build())

	t.Run("subjects minted after the build", func(t *testing.T) {
		st := randomBuilder(21, 400).Build()
		st.Count(Pattern{S: 1}) // builds the directory
		known, covered := dict.ID(st.Dict().Len()), 64*len(st.sdir.blocks)
		var ins []rdf.Triple
		for i := range 100 {
			ins = append(ins, rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://minted/s%d", i)),
				P: rdf.NewIRI("http://minted/p"),
				O: rdf.NewIRI(fmt.Sprintf("http://minted/o%d", i%3)),
			})
		}
		d, err := st.NewDelta().Apply(ins, nil)
		if err != nil {
			t.Fatal(err)
		}
		ov := d.Overlay()
		if ov.sdir != st.sdir {
			t.Fatal("the overlay must share its base's directory")
		}
		// New IDs land both in the directory's last block, as absent
		// subjects, and past its end: probe the first and last of each
		// kind.
		var minted, edges []dict.ID
		for _, tr := range ins {
			id, _ := ov.Dict().Lookup(tr.S)
			if id <= known {
				t.Fatalf("subject %d was minted before the directory was built", id)
			}
			if len(minted) > 0 && (int(minted[len(minted)-1]) < covered) != (int(id) < covered) {
				edges = append(edges, minted[len(minted)-1], id)
			}
			minted = append(minted, id)
		}
		if len(edges) == 0 || int(minted[0]) >= covered {
			t.Fatalf("minted IDs %d..%d do not straddle the directory's end %d", minted[0], minted[len(minted)-1], covered)
		}
		checkBaseRange(t, "overlay minted", ov, append(edges, minted[0], minted[len(minted)-1])...)
		// Every minted subject sorts above the run's last one, so the
		// directory answers it — past its end too — with the empty range
		// at the end of the run, and no lookup searches the whole run.
		spo := ov.idx[orderSPO]
		for _, s := range append(minted, math.MaxUint32) {
			if lo, hi, ok := ov.sdir.group(spo, ov.Dict(), s); !ok || lo != len(spo) || hi != len(spo) {
				t.Fatalf("group(%d) = [%d, %d) ok=%v, want the empty range at %d", s, lo, hi, ok, len(spo))
			}
		}
		// The merged view still finds the inserted triples of the new
		// subjects, exactly as a rebuilt store does.
		committed := d.Commit()
		p, _ := ov.Dict().Lookup(ins[0].P)
		for _, s := range minted {
			for _, pat := range []Pattern{{S: s}, {S: s, P: p}} {
				got, _ := ov.Match(pat)
				want, _ := committed.Match(pat)
				if len(got) != 1 || !equalTriples(got, want) || ov.Count(pat) != 1 {
					t.Fatalf("Match(%v) = %v, Count %d; committed %v", pat, got, ov.Count(pat), want)
				}
			}
		}
	})
}

// TestSubjectDirConcurrentBuild makes many goroutines race to the first
// subject-bound probes of stores whose directory is not built yet: the
// directory is built once and every probe sees the same ranges as a plain
// search of the run.
func TestSubjectDirConcurrentBuild(t *testing.T) {
	base, _ := overlayWorld(t, 5, 4000)
	img := v4Image(t, base)
	mapped, err := OpenMappedBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	spo := base.idx[orderSPO]
	probes := make([]Pattern, 0, 2*len(spo)/5+2)
	for i := 0; i < len(spo); i += 5 {
		probes = append(probes, Pattern{S: spo[i].S}, Pattern{S: spo[i].S, P: spo[i].P})
	}
	probes = append(probes, Pattern{S: dict.ID(base.Dict().Len() + 1)}, Pattern{S: math.MaxUint32})
	for name, st := range map[string]*Store{"heap": base.Rebuild(), "mapped": mapped} {
		if st.sdir.blocks != nil {
			t.Fatalf("%s: directory built before the first probe", name)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range 16 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range probes {
					pat := probes[(i+g*len(probes)/16)%len(probes)]
					lo, hi := st.baseRange(orderSPO, pat)
					wlo, whi := searchRange(st.idx[orderSPO], orderSPO, pat)
					if lo != wlo || hi != whi || st.Count(pat) != whi-wlo {
						t.Errorf("%s: %v = [%d, %d), want [%d, %d)", name, pat, lo, hi, wlo, whi)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestSubjectProbeAllocs pins the probe path allocation-free once the
// directory is built: a subject-bound MatchBuf or Count, heap or mapped,
// and on an overlay for a subject the delta leaves untouched (its runs
// are skipped) and for a pending one (they are merged into the scratch).
func TestSubjectProbeAllocs(t *testing.T) {
	heap, overlay := overlayWorld(t, 3, 4000)
	mapped, err := OpenMappedBytes(v4Image(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	d := overlay.Delta()
	untouched := slices.IndexFunc(overlay.idx[orderSPO], func(tr IDTriple) bool { return !d.subj.has(tr.S) })
	if untouched < 0 {
		t.Fatal("every subject of the overlay is pending")
	}
	for _, c := range []struct {
		label string
		st    *Store
		tr    IDTriple
	}{
		{"heap", heap, heap.idx[orderSPO][heap.Len()/2]},
		{"mapped", mapped, mapped.idx[orderSPO][mapped.Len()/2]},
		{"overlay untouched", overlay, overlay.idx[orderSPO][untouched]},
		{"overlay pending", overlay, d.ins[orderSPO][d.InsertCount()/2]},
	} {
		st, tr := c.st, c.tr
		for _, pat := range []Pattern{{S: tr.S}, {S: tr.S, P: tr.P}, {S: tr.S, O: tr.O}, {S: tr.S, P: tr.P, O: tr.O}} {
			var scratch, m []IDTriple
			probe := func() {
				m, scratch = st.MatchBuf(pat, scratch)
				probeSink += len(m) + st.Count(pat)
			}
			probe() // warm-up: builds the directory, grows the scratch
			if n := testing.AllocsPerRun(100, probe); n != 0 {
				t.Errorf("%s %v: %.0f allocations per probe", c.label, pat, n)
			}
		}
	}
}

// BenchmarkSubjectProbe times one subject-bound MatchBuf probe per bound
// prefix length, over heap and mapped indexes of the same store, with the
// probed triples drawn in random order — unlike BenchmarkSearchRange, so
// the probe pays the cache misses of finding its group, as the inner side
// of an index join over unsorted outer rows does.
func BenchmarkSubjectProbe(b *testing.B) {
	heap, _ := overlayWorld(b, 3, 200_000)
	mapped, err := OpenMappedBytes(v4Image(b, heap))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	probes := make([]IDTriple, 1<<16)
	for i := range probes {
		probes[i] = heap.idx[orderSPO][rng.Intn(heap.Len())]
	}
	for _, st := range []*Store{heap, mapped} {
		for nb := 1; nb <= 3; nb++ {
			b.Run(fmt.Sprintf("%s/prefix=%d", st.Backend(), nb), func(b *testing.B) {
				var scratch, m []IDTriple
				st.Count(Pattern{S: probes[0].S}) // builds the directory
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr := probes[i%len(probes)]
					m, scratch = st.MatchBuf(patternOf(orderSPO, [3]dict.ID{tr.S, tr.P, tr.O}, nb), scratch)
					probeSink += len(m)
				}
			})
		}
	}
}
