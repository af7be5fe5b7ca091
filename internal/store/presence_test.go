package store

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// checkPresence asserts that d's presence bitmaps are exact — a bit is set
// exactly when some pending insert or delete names the ID as its subject
// (object) — and that every read of d's overlay answers, for every probe
// forEachProbe makes (extra adds IDs to probe), what the filter-free
// runFor lookup and a store rebuilt from the merged set answer.
func checkPresence(t *testing.T, label string, d *Delta, extra []dict.ID) {
	t.Helper()
	subj, obj := map[dict.ID]bool{}, map[dict.ID]bool{}
	for _, run := range [][]IDTriple{d.ins[orderSPO], d.del[orderSPO]} {
		for i, tr := range run {
			subj[tr.S], obj[tr.O] = true, true
			if i == len(run)/2 {
				// A pending deletion's terms, which the rebuilt runs
				// forEachProbe samples may no longer hold.
				extra = append(extra, tr.S, tr.O)
			}
		}
	}
	for _, bm := range []struct {
		name string
		bits presence
		want map[dict.ID]bool
	}{{"subject", d.subj, subj}, {"object", d.obj, obj}} {
		// Probe one word past the end too: those IDs must read as absent.
		for id := dict.ID(0); int(id) < 64*(len(bm.bits)+1); id++ {
			if bm.bits.has(id) != bm.want[id] {
				t.Fatalf("%s: %s bit %d = %v, pending triples say %v", label, bm.name, id, bm.bits.has(id), bm.want[id])
			}
		}
		if bm.bits.has(math.MaxUint32) {
			t.Fatalf("%s: %s bit MaxUint32 set", label, bm.name)
		}
	}

	ov := d.Overlay()
	ref := referenceStore(t, ov)
	n := dict.ID(ov.Dict().Len())
	extra = append(extra, 1, n, n+1, math.MaxUint32)
	var scratch, m []IDTriple
	for o := order(0); o < numOrders; o++ {
		seen := map[Pattern]bool{}
		forEachProbe(ref.idx[o], o, extra, func(pat Pattern, wantLo, wantHi int) {
			if seen[pat] {
				return // short prefixes of many keys repeat
			}
			seen[pat] = true
			want := ref.idx[o][wantLo:wantHi]
			// The filter-free lookup of the same range, in order o.
			lo, hi := ov.baseRange(o, pat)
			plain := applyRun(ov.idx[o][lo:hi], runFor(d.del[o], o, pat), runFor(d.ins[o], o, pat), o)
			if !equalTriples(plain, want) {
				t.Fatalf("%s %v %v: runFor merge %v, rebuilt %v", label, o, pat, plain, want)
			}
			var sc Scan
			ov.openScan(&sc, o, pat)
			if got := drainScan(&sc); !equalTriples(got, want) {
				t.Fatalf("%s %v %v: cursor %v, rebuilt %v", label, o, pat, got, want)
			}
			// The public reads, in the order they choose for pat.
			rm, _ := ref.Match(pat)
			if m, scratch = ov.MatchBuf(pat, scratch); !equalTriples(m, rm) {
				t.Fatalf("%s %v: MatchBuf %v, rebuilt %v", label, pat, m, rm)
			}
			if c := ov.Count(pat); c != len(rm) {
				t.Fatalf("%s %v: Count %d, rebuilt %d", label, pat, c, len(rm))
			}
			if got := drainScan(ov.Scan(pat)); !equalTriples(got, rm) {
				t.Fatalf("%s %v: Scan %v, rebuilt %v", label, pat, got, rm)
			}
		})
	}
}

// presenceOps adds to step k of a chainWorld stream what the presence
// bitmaps must survive on top of it: inserts of subjects and objects
// minted in this call (enough over the chain to fill many bitmap words),
// deletes of some minted in earlier calls, deletes of absent triples —
// known terms and unknown ones — and a base triple deleted and put back.
func presenceOps(w *chainWorld, k int) []DeltaOp {
	rng := w.rng
	var ins, del []rdf.Triple
	for i := range 1 + rng.Intn(40) {
		ins = append(ins, rdf.Triple{
			S: iri(fmt.Sprintf("m%d_%d", k, i)),
			P: iri(fmt.Sprintf("p%d", i%6)),
			O: iri(fmt.Sprintf("mo%d_%d", k, i%7)),
		})
	}
	if k > 0 {
		for i := range rng.Intn(20) {
			del = append(del, rdf.Triple{
				S: iri(fmt.Sprintf("m%d_%d", k-1, i)),
				P: iri(fmt.Sprintf("p%d", i%6)),
				O: iri(fmt.Sprintf("mo%d_%d", k-1, i%7)),
			})
		}
	}
	del = append(del, trp("s1", "p1", "absent"), trp("never", "seen", "before"), trp("s2", "p3", "o1"))
	ops := []DeltaOp{{Insert: true, Triples: ins}, {Triples: del}}
	if back := w.present(1, Pattern{}); len(back) > 0 {
		ops = append(ops, DeltaOp{Triples: back}, DeltaOp{Insert: true, Triples: back})
	}
	return ops
}

// lateIDs mints n terms straight into the shared dictionary, as a later
// update does while readers still hold an older overlay (whose queries
// may then look those terms up), and returns the first and the last of
// their IDs: they are larger than any the current deltas' bitmaps were
// sized for, and with n > 64 the last is past the bitmaps' last word.
func lateIDs(d *dict.Dict, k, n int) []dict.ID {
	first := d.Encode(iri(fmt.Sprintf("late%d_0", k)))
	last := first
	for i := 1; i < n; i++ {
		last = d.Encode(iri(fmt.Sprintf("late%d_%d", k, i)))
	}
	return []dict.ID{first, last}
}

// TestDeltaPresenceExact is the property test of the presence bitmaps:
// along a random update chain, every delta's bitmaps stay exact and its
// overlay reads stay equal to the filter-free lookup and to a rebuild.
func TestDeltaPresenceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	base := buildFrom(t, randomTriples(rng, 240))
	w := &chainWorld{t: t, rng: rng, d: base.NewDelta(), view: base}
	for k := range 16 {
		ops := append(w.ops(k), presenceOps(w, k)...)
		d, err := w.d.ApplyOps(ops)
		if err != nil {
			t.Fatal(err)
		}
		w.d, w.view = d, d.Overlay()
		late := lateIDs(w.dict(), k, 1+rng.Intn(100))
		checkPresence(t, fmt.Sprintf("step %d", k), d, late)
	}
}
