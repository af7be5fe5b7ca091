package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dict"
)

// linearRange is the specification of searchRange: the first and one past
// the last position of idx whose leading nb sort-key components equal
// k[:nb]. idx is sorted by o, so the matches are contiguous.
func linearRange(idx []IDTriple, o order, k [3]dict.ID, nb int) (lo, hi int) {
	lo, hi = -1, -1
	for i, t := range idx {
		a, b, c := key(t, o)
		got := [3]dict.ID{a, b, c}
		match := true
		for j := 0; j < nb; j++ {
			match = match && got[j] == k[j]
		}
		if match {
			if lo < 0 {
				lo = i
			}
			hi = i + 1
		}
	}
	if lo >= 0 {
		return lo, hi
	}
	// No match: the (empty) range sits where the prefix would be inserted.
	for i, t := range idx {
		a, b, c := key(t, o)
		got := [3]dict.ID{a, b, c}
		for j := 0; j < nb; j++ {
			if got[j] != k[j] {
				if got[j] > k[j] {
					return i, i
				}
				break
			}
		}
	}
	return len(idx), len(idx)
}

// patternOf binds the first nb sort-key positions of o to k.
func patternOf(o order, k [3]dict.ID, nb int) Pattern {
	var pat [3]dict.ID
	for j := 0; j < nb; j++ {
		pat[orderPositions[o][j]] = k[j]
	}
	return Pattern{S: pat[0], P: pat[1], O: pat[2]}
}

// forEachProbe calls f with every probe pattern over idx (sorted by o):
// every prefix length — together with the six orders that is every bound
// mask an order can serve — of keys sampled from the run itself, their
// neighbours, and the values in extra, with linearRange's answer for it.
func forEachProbe(idx []IDTriple, o order, extra []dict.ID, f func(pat Pattern, wantLo, wantHi int)) {
	var keys [][3]dict.ID
	for i := 0; i < len(idx); i += len(idx)/64 + 1 {
		a, b, c := key(idx[i], o)
		keys = append(keys, [3]dict.ID{a, b, c}, [3]dict.ID{a, b, c + 1}, [3]dict.ID{a, b - 1, c}, [3]dict.ID{a + 1, b, c})
	}
	for _, x := range extra {
		for _, y := range extra {
			keys = append(keys, [3]dict.ID{x, y, x}, [3]dict.ID{y, y, x})
		}
	}
	for _, k := range keys {
		for nb := 0; nb <= 3; nb++ {
			bound := true
			for j := 0; j < nb; j++ {
				bound = bound && k[j] != dict.None
			}
			if !bound {
				continue // None is the wildcard, not a value
			}
			lo, hi := linearRange(idx, o, k, nb)
			f(patternOf(o, k, nb), lo, hi)
		}
	}
}

// checkSearchRange compares searchRange and runFor with linearRange over
// idx (sorted by o) for every probe forEachProbe makes.
func checkSearchRange(t *testing.T, label string, idx []IDTriple, o order, extra []dict.ID) {
	t.Helper()
	forEachProbe(idx, o, extra, func(pat Pattern, wantLo, wantHi int) {
		lo, hi := searchRange(idx, o, pat)
		if lo != wantLo || hi != wantHi {
			t.Fatalf("%s %v: searchRange(%v) = [%d, %d), linear filter [%d, %d) of %d", label, o, pat, lo, hi, wantLo, wantHi, len(idx))
		}
		if run := runFor(idx, o, pat); len(run) != wantHi-wantLo || (len(run) > 0 && run[0] != idx[wantLo]) {
			t.Fatalf("%s %v: runFor(%v) has %d triples, want %d from %d", label, o, pat, len(run), wantHi-wantLo, wantLo)
		}
	})
}

// TestSearchRangeMatchesLinearFilter is the property test of the probe
// kernel on raw runs, where IDs are free to sit at the edges of uint32: a
// bound component of MaxUint32 makes the exclusive upper key carry, out of
// the packed word or out of the key altogether.
func TestSearchRangeMatchesLinearFilter(t *testing.T) {
	const top = math.MaxUint32
	edge := []dict.ID{1, 2, top - 1, top}
	shapes := map[string]func(rng *rand.Rand) []IDTriple{
		"empty": func(*rand.Rand) []IDTriple { return nil },
		"one":   func(*rand.Rand) []IDTriple { return []IDTriple{{S: 7, P: 8, O: 9}} },
		"edges": func(*rand.Rand) []IDTriple {
			var ts []IDTriple
			for _, s := range edge {
				for _, p := range edge {
					for _, o := range edge {
						ts = append(ts, IDTriple{S: s, P: p, O: o})
					}
				}
			}
			return ts
		},
		"all max": func(*rand.Rand) []IDTriple { return []IDTriple{{S: top, P: top, O: top}} },
		"long runs": func(rng *rand.Rand) []IDTriple {
			// Few distinct values per position: every prefix has a long run.
			seen := map[IDTriple]struct{}{}
			for i := 0; i < 3000; i++ {
				seen[IDTriple{S: dict.ID(1 + rng.Intn(3)), P: dict.ID(1 + rng.Intn(2)), O: dict.ID(1 + rng.Intn(400))}] = struct{}{}
			}
			return setToSlice(seen)
		},
		"sparse": func(rng *rand.Rand) []IDTriple {
			seen := map[IDTriple]struct{}{}
			for i := 0; i < 500; i++ {
				seen[IDTriple{S: dict.ID(1 + rng.Intn(200)), P: dict.ID(1 + rng.Intn(6)), O: dict.ID(1 + rng.Uint32()>>1)}] = struct{}{}
			}
			return setToSlice(seen)
		},
	}
	for name, gen := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			ts := gen(rand.New(rand.NewSource(seed)))
			for o := order(0); o < numOrders; o++ {
				idx := append([]IDTriple(nil), ts...)
				sortByOrder(idx, o)
				checkSearchRange(t, name, idx, o, edge)
			}
		}
	}
}

// TestSearchRangeAcrossBackings runs the same property over the indexes of
// real stores — heap-built, opened over a v4 image, and the insert and
// delete runs of an overlay, which reads reach through runFor.
func TestSearchRangeAcrossBackings(t *testing.T) {
	base, overlay := overlayWorld(t, 11, 1500)
	var img bytes.Buffer
	if err := base.WriteSnapshot(&img); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMappedBytes(img.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Backend() != "mapped" {
		t.Fatalf("backend = %q", mapped.Backend())
	}
	absent := []dict.ID{dict.ID(base.Dict().Len() + 5), math.MaxUint32}
	for o := order(0); o < numOrders; o++ {
		checkSearchRange(t, "heap", base.idx[o], o, absent)
		checkSearchRange(t, "mapped", mapped.idx[o], o, absent)
		checkSearchRange(t, "overlay ins", overlay.delta.ins[o], o, absent)
		checkSearchRange(t, "overlay del", overlay.delta.del[o], o, absent)
	}
	pat := Pattern{S: base.idx[orderSPO][len(base.idx[orderSPO])/2].S}
	if n := testing.AllocsPerRun(100, func() { searchRange(mapped.idx[orderSPO], orderSPO, pat) }); n != 0 {
		t.Fatalf("searchRange allocates %.0f times per probe", n)
	}
}

// BenchmarkSearchRange times one probe per bound-prefix length over heap
// and mapped indexes of the same store, with the probed keys drawn from
// the index so every probe finds its (short) range.
func BenchmarkSearchRange(b *testing.B) {
	heap, _ := overlayWorld(b, 3, 200_000)
	var img bytes.Buffer
	if err := heap.WriteSnapshot(&img); err != nil {
		b.Fatal(err)
	}
	mapped, err := OpenMappedBytes(img.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	// Probe keys in index order, as the outer side of an index join
	// delivers them: the upper levels of the search stay in cache and the
	// kernel's own cost shows. Random keys time the cache misses instead.
	probes := make([]IDTriple, 4096)
	for i := range probes {
		probes[i] = heap.idx[orderSPO][i*heap.Len()/len(probes)]
	}
	for _, st := range []*Store{heap, mapped} {
		for nb := 1; nb <= 3; nb++ {
			b.Run(fmt.Sprintf("%s/prefix=%d", st.Backend(), nb), func(b *testing.B) {
				idx := st.idx[orderSPO]
				sum := 0
				for i := 0; i < b.N; i++ {
					tr := probes[i%len(probes)]
					lo, hi := searchRange(idx, orderSPO, patternOf(orderSPO, [3]dict.ID{tr.S, tr.P, tr.O}, nb))
					sum += hi - lo
				}
				if sum < b.N {
					b.Fatalf("%d probes found %d triples", b.N, sum)
				}
			})
		}
	}
}

var probeSink int

// BenchmarkShardedProbe times one MatchBuf probe — the index-join inner
// side — bound on the subject or on the object, over one store and over a
// 4-shard federation of it. A subject-bound probe reads only the home
// shard; an object-bound one merges the shards' runs into the scratch.
func BenchmarkShardedProbe(b *testing.B) {
	heap, _ := overlayWorld(b, 3, 200_000)
	all := heap.idx[orderSPO]
	probes := make([]IDTriple, 4096)
	for i := range probes {
		probes[i] = all[i*len(all)/len(probes)]
	}
	for _, n := range []int{1, 4} {
		src := NewSharded(heap, n).Source()
		for _, bind := range []string{"subject", "object"} {
			b.Run(fmt.Sprintf("shards=%d/%s", n, bind), func(b *testing.B) {
				var scratch, m []IDTriple
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr := probes[i%len(probes)]
					pat := Pattern{S: tr.S}
					if bind == "object" {
						pat = Pattern{O: tr.O}
					}
					m, scratch = src.MatchBuf(pat, scratch)
					probeSink += len(m)
				}
			})
		}
	}
}

// BenchmarkShardedScan drains a whole-predicate scan in 1024-triple
// batches, over one store and over a 4-shard federation, whose PSO runs
// interleave at every subject. It reports the cost per triple delivered.
func BenchmarkShardedScan(b *testing.B) {
	heap, _ := overlayWorld(b, 3, 200_000)
	p := heap.idx[orderPSO][0].P
	for _, n := range []int{1, 4} {
		src := NewSharded(heap, n).Source()
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			triples := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := src.Scan(Pattern{P: p})
				for batch := sc.Next(1024); batch != nil; batch = sc.Next(1024) {
					triples += len(batch)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(triples), "ns/triple")
		})
	}
}
