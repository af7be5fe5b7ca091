package store

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// This file implements the updatable-store layer: an immutable Delta of
// insertions and deletions against a base Store, published either as an
// overlay snapshot (Overlay: the base's indexes stay untouched and every
// read merges the delta in on the fly) or folded into a fresh fully
// indexed store (Commit). Both results are ordinary immutable *Store
// values, so the MVCC story is the existing one: writers build a new
// snapshot and swap an atomic pointer; in-flight readers keep the snapshot
// they pinned.
//
// Invariants (established by Apply):
//
//   - ins ∩ base = ∅ — an insertion never duplicates a base triple;
//   - del ⊆ base — a deletion always names an existing base triple;
//   - ins ∩ del = ∅ — a triple is never both inserted and deleted.
//
// These keep every overlay count exact: |overlay| = |base| − |del| + |ins|
// holds for the whole store and for any index range, which is what lets
// the overlay's Count/Len/PredicateStats agree bit-for-bit with a store
// rebuilt from the merged triple set — and therefore lets the optimizer
// pick the same plan over either, the property the differential harness
// asserts. They are also mergeRuns' contract, so every merged run — an
// overlay read, a delta extension, a compaction — is one run copy.

// Delta is an immutable batch of insertions and deletions over a base
// Store. The insert and delete sets are kept sorted under every
// permutation order, so every index range the base can answer has a
// matching delta run and all permutation indexes stay virtually
// consistent under overlay reads. A delta also carries the exact
// statistics and rdf:type class index of its merged view, patched from
// each update's touches, so publishing it costs O(1), and the presence
// bitmaps of its pending subjects and objects, which let reads that
// cannot meet a pending triple skip its runs. Create one with
// Store.NewDelta, extend it with Apply (copy-on-write; the receiver is
// never mutated), and publish it with Overlay or Commit.
type Delta struct {
	base    *Store
	ins     [numOrders][]IDTriple
	del     [numOrders][]IDTriple
	subj    presence              // subjects of the pending triples
	obj     presence              // their objects
	pstats  map[dict.ID]PredStats // exact statistics of the merged view
	typeIdx map[dict.ID][]dict.ID // its rdf:type class -> sorted subjects
}

// presence is a bitmap over dictionary IDs, one bit per ID. A delta keeps
// one for the subjects and one for the objects of its pending triples, so
// a read bound to an ID no pending triple names skips the delta's runs
// without searching them. The bitmaps are exact (a bit is set exactly
// when some pending triple names the ID), immutable and built only by
// ApplyOps; an ID past the end, minted after they were built, names no
// pending triple and reads as absent.
type presence []uint64

func (p presence) has(id dict.ID) bool {
	w := int(id >> 6)
	return w < len(p) && p[w]&(1<<(id&63)) != 0
}

func (p presence) set(id dict.ID)   { p[id>>6] |= 1 << (id & 63) }
func (p presence) clear(id dict.ID) { p[id>>6] &^= 1 << (id & 63) }

// grown returns a copy of p with room for the IDs up to n, the
// dictionary's length (it only grows, so p never holds more).
func (p presence) grown(n int) presence {
	out := make(presence, n/64+1)
	copy(out, p)
	return out
}

// NewDelta returns the pending delta of s: the empty delta for a plain
// store, or the overlay's current delta so updates over an overlay
// snapshot extend it rather than stack overlays.
func (s *Store) NewDelta() *Delta {
	if s.delta != nil {
		return s.delta
	}
	return &Delta{base: s, pstats: s.pstats, typeIdx: s.typeIdx}
}

// Delta returns the delta an overlay store reads through, or nil for a
// plain (fully indexed) store.
func (s *Store) Delta() *Delta { return s.delta }

// Base returns the store the delta applies to.
func (d *Delta) Base() *Store { return d.base }

// InsertCount returns the number of pending inserted triples.
func (d *Delta) InsertCount() int { return len(d.ins[orderSPO]) }

// DeleteCount returns the number of pending deleted triples.
func (d *Delta) DeleteCount() int { return len(d.del[orderSPO]) }

// Size returns the total number of pending changes (inserts + deletes) —
// the quantity auto-compaction policies threshold on.
func (d *Delta) Size() int { return d.InsertCount() + d.DeleteCount() }

// Empty reports whether the delta holds no changes.
func (d *Delta) Empty() bool { return d.Size() == 0 }

// baseContains reports whether the base store s (its indexes, not any
// delta) holds t.
func (s *Store) baseContains(t IDTriple) bool {
	lo, hi := s.baseRange(orderSPO, Pattern{S: t.S, P: t.P, O: t.O})
	return hi > lo
}

// runs returns the delete and insert runs of order o matching pat, whose
// bound positions must be a prefix of o's sort key: the one lookup every
// overlay read makes in the delta. A pattern bound to a subject or an
// object no pending triple names gets empty runs from the presence
// bitmaps without a search.
func (d *Delta) runs(o order, pat Pattern) (del, ins []IDTriple) {
	if pat.S != dict.None && !d.subj.has(pat.S) || pat.O != dict.None && !d.obj.has(pat.O) {
		return nil, nil
	}
	return runFor(d.del[o], o, pat), runFor(d.ins[o], o, pat)
}

// viewCount returns the number of triples of the delta's merged view
// matching pat, located in order o, whose key must start with pat's bound
// positions: one base-run lookup and one delta lookup.
func (d *Delta) viewCount(o order, pat Pattern) int {
	lo, hi := d.base.baseRange(o, pat)
	del, ins := d.runs(o, pat)
	return hi - lo + len(ins) - len(del)
}

// DeltaOp is one insert-or-delete batch of an update. A multi-operation
// update (e.g. a parsed SPARQL-Update request) folds into a Delta through
// ApplyOps with one sort at the end instead of one per operation.
type DeltaOp struct {
	Insert  bool // true inserts Triples, false deletes them
	Triples []rdf.Triple
}

// Apply returns a Delta extending d with the given insertions and
// deletions, under RDF set semantics applied in argument order (all
// inserts, then all deletes): inserting a triple already present (in the
// base and not deleted, or already inserted) is a no-op; inserting a
// deleted base triple resurrects it; deleting an inserted triple removes
// the insertion; deleting an absent triple is a no-op. New terms are
// encoded into the base store's shared dictionary. d itself is never
// mutated, so snapshots holding it stay valid; when nothing changes, d
// itself is returned (callers can use pointer equality to skip
// republishing).
func (d *Delta) Apply(ins, del []rdf.Triple) (*Delta, error) {
	var ops []DeltaOp
	if len(ins) > 0 {
		ops = append(ops, DeltaOp{Insert: true, Triples: ins})
	}
	if len(del) > 0 {
		ops = append(ops, DeltaOp{Triples: del})
	}
	return d.ApplyOps(ops)
}

// ApplyOps is Apply over an ordered operation sequence. It costs
// O(batch), plus one linear copy: membership in the pending sets is
// answered by binary search on the existing sorted runs plus four small
// touch-sets (triples this call adds to / removes from each set), each
// order's new run is one mergeRuns copy of the old run with the sorted
// touches, and the statistics and class index are patched from the
// touches alone. Returns d itself when the ops leave the delta
// semantically unchanged (including an insert cancelled by a later
// delete in the same call), so callers can skip republishing on pointer
// equality.
func (d *Delta) ApplyOps(ops []DeltaOp) (*Delta, error) {
	for _, op := range ops {
		for _, t := range op.Triples {
			if !t.Valid() {
				return nil, fmt.Errorf("store: invalid triple %v", t)
			}
		}
	}
	type set = map[IDTriple]struct{}
	var (
		dd     = d.base.dict
		oldIns = d.ins[orderSPO]
		oldDel = d.del[orderSPO]
		// Touch-sets: what this call adds to / removes from each pending
		// set, relative to d. Empty at the end ⇔ nothing changed.
		insAdd, insRem, delAdd, delRem = set{}, set{}, set{}, set{}
	)
	member := func(old []IDTriple, rem, add set, it IDTriple) bool {
		if _, ok := add[it]; ok {
			return true
		}
		if _, ok := rem[it]; ok {
			return false
		}
		return sortedContains(old, orderSPO, it)
	}
	// remove drops a current member (it is in the add-set or the old
	// run); insert admits a current non-member (it may re-admit an old
	// entry removed earlier in this call).
	remove := func(rem, add set, it IDTriple) {
		if _, ok := add[it]; ok {
			delete(add, it)
			return
		}
		rem[it] = struct{}{}
	}
	insert := func(rem, add set, it IDTriple) {
		if _, ok := rem[it]; ok {
			delete(rem, it)
			return
		}
		add[it] = struct{}{}
	}
	for _, op := range ops {
		for _, t := range op.Triples {
			if op.Insert {
				it := IDTriple{S: dd.Encode(t.S), P: dd.Encode(t.P), O: dd.Encode(t.O)}
				switch {
				case member(oldDel, delRem, delAdd, it):
					remove(delRem, delAdd, it) // resurrect a deleted base triple
				case d.base.baseContains(it) || member(oldIns, insRem, insAdd, it):
					// Already present.
				default:
					insert(insRem, insAdd, it)
				}
				continue
			}
			// Lookup-only: deleting a triple with unknown terms is a no-op
			// and must not grow the dictionary.
			s, okS := dd.Lookup(t.S)
			p, okP := dd.Lookup(t.P)
			o, okO := dd.Lookup(t.O)
			if !okS || !okP || !okO {
				continue
			}
			it := IDTriple{S: s, P: p, O: o}
			switch {
			case member(oldIns, insRem, insAdd, it):
				remove(insRem, insAdd, it) // cancel a pending insert
			case member(oldDel, delRem, delAdd, it):
				// Already deleted.
			case d.base.baseContains(it):
				insert(delRem, delAdd, it)
			}
		}
	}
	if len(insAdd)+len(insRem)+len(delAdd)+len(delRem) == 0 {
		return d, nil
	}
	touched := [4][]IDTriple{setToSlice(insAdd), setToSlice(insRem), setToSlice(delAdd), setToSlice(delRem)}
	nd := &Delta{base: d.base}
	tc := &viewTouches{}
	for o := order(0); o < numOrders; o++ {
		ia, ir := sortedCopy(touched[0], o), sortedCopy(touched[1], o)
		da, dr := sortedCopy(touched[2], o), sortedCopy(touched[3], o)
		nd.ins[o] = applyRun(d.ins[o], ir, ia, o)
		nd.del[o] = applyRun(d.del[o], dr, da, o)
		if o == orderPSO || o == orderPOS {
			// Inserts and resurrections are disjoint (one set is outside
			// the base, the other inside), as are cancels and deletions.
			tc.added[o] = applyRun(ia, nil, dr, o)
			tc.removed[o] = applyRun(ir, nil, da, o)
		}
	}
	nd.markPresence(d, [][]IDTriple{touched[0], touched[2]}, [][]IDTriple{touched[1], touched[3]})
	nd.derive(d, tc)
	return nd, nil
}

// viewTouches are what one update changes in a merged view: the triples
// it adds (inserts and resurrections) and the triples it removes
// (deletions and cancelled inserts), sorted per order. Only the PSO and
// POS orders are read: the statistics are kept in those two.
type viewTouches struct {
	added, removed [numOrders][]IDTriple
}

// markPresence sets d's presence bitmaps: parent's, sized to the
// dictionary once, with the subjects and objects of the triples added to
// a pending set marked, and those of the triples removed from one
// cleared where d's runs hold no triple naming them any more.
func (d *Delta) markPresence(parent *Delta, added, removed [][]IDTriple) {
	n := d.base.dict.Len()
	d.subj, d.obj = parent.subj.grown(n), parent.obj.grown(n)
	for _, ts := range added {
		for _, t := range ts {
			d.subj.set(t.S)
			d.obj.set(t.O)
		}
	}
	for _, ts := range removed {
		for _, t := range ts {
			if !d.pending(orderSPO, Pattern{S: t.S}) {
				d.subj.clear(t.S)
			}
			if !d.pending(orderOSP, Pattern{O: t.O}) {
				d.obj.clear(t.O)
			}
		}
	}
}

// pending reports whether d's insert or delete run of order o holds a
// triple matching pat.
func (d *Delta) pending(o order, pat Pattern) bool {
	return len(runFor(d.ins[o], o, pat)) > 0 || len(runFor(d.del[o], o, pat)) > 0
}

func setToSlice(set map[IDTriple]struct{}) []IDTriple {
	out := make([]IDTriple, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	return out
}

// sortedCopy returns ts sorted under o as a fresh slice, nil when empty.
func sortedCopy(ts []IDTriple, o order) []IDTriple {
	if len(ts) == 0 {
		return nil
	}
	cp := slices.Clone(ts)
	sortByOrder(cp, o)
	return cp
}

// derive sets d's statistics and class index: parent's, patched by the
// touches that lead from parent's view to d's.
func (d *Delta) derive(parent *Delta, tc *viewTouches) {
	d.pstats = patchStats(parent, tc)
	d.typeIdx = patchTypeIndex(parent.typeIdx, tc, lookupType(d.base.dict))
}

// patchStats returns parent's per-predicate statistics with tc applied,
// without re-scanning any run. Count moves by the triples added minus
// removed. DistinctS (DistinctO) moves only where a touched (p,s) ((p,o))
// group's count in the view crosses zero, read from the group's count in
// parent's view. An entry whose count reaches zero is dropped, as a
// rebuild would never create it.
func patchStats(parent *Delta, tc *viewTouches) map[dict.ID]PredStats {
	out := make(map[dict.ID]PredStats, len(parent.pstats))
	maps.Copy(out, parent.pstats)
	forGroups(tc.added[orderPSO], tc.removed[orderPSO], orderPSO, func(pat Pattern, added, removed []IDTriple) {
		st, c := out[pat.P], parent.viewCount(orderPSO, pat)
		st.Count += len(added) - len(removed)
		st.DistinctS += present(c+len(added)-len(removed)) - present(c)
		out[pat.P] = st
	})
	// Every predicate the PSO pass touched is touched here too, after its
	// Count is final.
	forGroups(tc.added[orderPOS], tc.removed[orderPOS], orderPOS, func(pat Pattern, added, removed []IDTriple) {
		st, c := out[pat.P], parent.viewCount(orderPOS, pat)
		st.DistinctO += present(c+len(added)-len(removed)) - present(c)
		out[pat.P] = st
		if st.Count == 0 {
			delete(out, pat.P)
		}
	})
	return out
}

// present counts a group of c triples in its distinct count: 1 when it
// is in the view, 0 when it is not.
func present(c int) int {
	if c > 0 {
		return 1
	}
	return 0
}

// forGroups calls fn once for every group of triples sharing the first
// two key components under o — (p,s) in PSO order, (p,o) in POS order —
// that added or removed (both sorted under o) touch, with the group's
// pattern and its triples in each.
func forGroups(added, removed []IDTriple, o order, fn func(pat Pattern, added, removed []IDTriple)) {
	p := orderPositions[o]
	groupLen := func(ts []IDTriple, pk uint64) int {
		n := 0
		for n < len(ts) && packKey(&ts[n], p).pk == pk {
			n++
		}
		return n
	}
	for len(added) > 0 || len(removed) > 0 {
		pk := uint64(math.MaxUint64)
		if len(added) > 0 {
			pk = packKey(&added[0], p).pk
		}
		if len(removed) > 0 {
			pk = min(pk, packKey(&removed[0], p).pk)
		}
		na, nr := groupLen(added, pk), groupLen(removed, pk)
		var c [3]dict.ID
		c[p[0]], c[p[1]] = dict.ID(pk>>32), dict.ID(pk)
		fn(Pattern{S: c[0], P: c[1], O: c[2]}, added[:na], removed[:nr])
		added, removed = added[na:], removed[nr:]
	}
}

// patchTypeIndex returns parent's class index with tc applied. A subject
// joins (leaves) class c exactly when its (s, rdf:type, c) triple is
// added (removed), so only the classes those touches name get a new
// member list; every other class shares parent's.
func patchTypeIndex(parent map[dict.ID][]dict.ID, tc *viewTouches, typeID dict.ID) map[dict.ID][]dict.ID {
	if typeID == dict.None {
		return parent
	}
	pat := Pattern{P: typeID}
	added, removed := runFor(tc.added[orderPOS], orderPOS, pat), runFor(tc.removed[orderPOS], orderPOS, pat)
	if len(added)+len(removed) == 0 {
		return parent
	}
	out := make(map[dict.ID][]dict.ID, len(parent))
	maps.Copy(out, parent)
	forGroups(added, removed, orderPOS, func(pat Pattern, added, removed []IDTriple) {
		if members := patchMembers(out[pat.O], added, removed); len(members) > 0 {
			out[pat.O] = members
		} else {
			delete(out, pat.O)
		}
	})
	return out
}

// patchMembers returns the sorted subject list old with the subjects of
// add joined and those of rem dropped (both runs of one class's
// rdf:type triples, so sorted by subject), as a fresh slice: the list is
// copied in stretches between the touched positions.
func patchMembers(old []dict.ID, add, rem []IDTriple) []dict.ID {
	out := make([]dict.ID, 0, len(old)+len(add)-len(rem))
	for len(add) > 0 || len(rem) > 0 {
		if len(rem) > 0 && (len(add) == 0 || rem[0].S < add[0].S) {
			i, _ := slices.BinarySearch(old, rem[0].S)
			out = append(out, old[:i]...)
			old, rem = old[i+1:], rem[1:]
			continue
		}
		i, _ := slices.BinarySearch(old, add[0].S)
		out = append(append(out, old[:i]...), add[0].S)
		old, add = old[i:], add[1:]
	}
	return append(out, old...)
}

// runFor returns the subrange of a delta slice (sorted by o) matching
// pat's bound prefix — the delta-side counterpart of searchRange on a base
// index.
func runFor(idx []IDTriple, o order, pat Pattern) []IDTriple {
	lo, hi := searchRange(idx, o, pat)
	return idx[lo:hi]
}

// Overlay returns an immutable snapshot that reads the base through the
// delta: Match, Count, Scan, Len, PredicateStats,
// SubjectsOfClass and DistinctValues all observe the merged triple set,
// with exactly the values a store rebuilt from that set would report. It
// costs O(1): the base's six permutation indexes are shared, and the
// statistics and class index are the ones the delta carries. An empty
// delta returns the base itself.
func (d *Delta) Overlay() *Store {
	if d.Empty() {
		return d.base
	}
	base := d.base
	return &Store{
		dict:    base.dict,
		n:       base.n - d.DeleteCount() + d.InsertCount(),
		mapped:  base.mapped, // overlay shares the base's backing, heap or mapped
		idx:     base.idx,
		pstats:  d.pstats,
		typeIdx: d.typeIdx,
		typeID:  lookupType(base.dict),
		delta:   d,
		sdir:    base.sdir,
	}
}

// Commit folds the delta into a fresh, fully indexed immutable store over
// the same shared dictionary, identical to one built from the merged
// triple set. Nothing is sorted: each of the six permutations is one
// mergeRuns copy of the base run and the delta runs of the same order
// (at most GOMAXPROCS at a time), and the statistics and
// class index are the ones the delta carries. The result carries no
// delta. Publish it through the same atomic swap as any snapshot; readers
// pinned to the overlay keep reading it. An empty delta returns the base.
func (d *Delta) Commit() *Store {
	if d.Empty() {
		return d.base
	}
	base := d.base
	s := &Store{
		dict:    base.dict,
		n:       base.n - d.DeleteCount() + d.InsertCount(),
		pstats:  d.pstats,
		typeIdx: ownedTypeIndex(d.typeIdx),
		typeID:  lookupType(base.dict),
		sdir:    new(subjectDir),
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for o := order(0); o < numOrders; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			s.idx[o] = applyRun(base.idx[o], d.del[o], d.ins[o], o)
			<-sem
		}()
	}
	wg.Wait()
	return s
}

// ownedTypeIndex copies a carried class index onto the heap: its
// untouched member lists are the base's, which may live in a mapping the
// committed store does not keep alive.
func ownedTypeIndex(idx map[dict.ID][]dict.ID) map[dict.ID][]dict.ID {
	out := make(map[dict.ID][]dict.ID, len(idx))
	for c, subjects := range idx {
		out[c] = slices.Clone(subjects)
	}
	return out
}

// sortedContains reports whether a slice sorted by o contains t.
func sortedContains(idx []IDTriple, o order, t IDTriple) bool {
	p := orderPositions[o]
	i := lowerBound(idx, p, 0, len(idx), packKey(&t, p))
	return i < len(idx) && idx[i] == t
}
