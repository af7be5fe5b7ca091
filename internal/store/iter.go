package store

import (
	"fmt"

	"repro/internal/dict"
)

// Scan is a batch cursor over the triples matching one pattern. On a
// plain store it walks the contiguous range of the best-fitting
// permutation index without copying: every batch is a subslice of the
// index, valid for the lifetime of the store. On an overlay store the
// cursor merges on read — the base run is streamed with deleted triples
// masked and pending insertions interleaved in index order — and batches
// are assembled in an internal buffer that is reused across Next calls
// (consume a batch before pulling the next). Either way, streaming
// executors pull batches with Next instead of materializing the full
// match slice, so leaf-scan memory is O(batch) rather than O(result).
//
// A Scan is also a seekable trie cursor: SeekVar repositions it (in either
// direction) at the first triple of its range whose unbound-position key
// components reach a target, and Head peeks at the next triple without
// consuming it. ScanSeek opens the cursor on the permutation whose sort
// key lists the unbound positions in a caller-chosen order, which is what
// a leapfrog triejoin needs — the six hexastore permutations supply every
// ordering of up to three trie levels for free.
type Scan struct {
	rest []IDTriple // base index run not yet delivered
	del  []IDTriple // pending deletions within rest, same order
	ins  []IDTriple // pending insertions for the range, same order
	ord  order
	buf  []IDTriple // merged-batch buffer, reused across Next calls

	// Full range runs, kept so SeekVar can reposition bidirectionally
	// (a leapfrog cursor re-enters the same key group once per binding of
	// the variables above it). Slice headers only — no copies.
	rest0, del0, ins0 []IDTriple
	nb                int        // bound-prefix length of the sort key
	prefix            [3]dict.ID // bound-prefix values, index-key order

	// sub, when non-nil, makes the cursor a k-way merge over per-shard
	// child cursors (same order, disjoint triple sets — see merged.go).
	// The run fields above are unused in that mode; every method
	// delegates to the children.
	sub []Scan
}

// initRuns records the cursor's full runs and bound-key prefix.
func (sc *Scan) initRuns(pat Pattern) {
	sc.rest0, sc.del0, sc.ins0 = sc.rest, sc.del, sc.ins
	sc.prefix, sc.nb = prefixBounds(sc.ord, pat)
}

// Scan opens a cursor over the triples matching pat. The triples are
// delivered in the sort order of the chosen index — the same order Match
// returns them in, so Scan and Match are interchangeable for equal results.
func (s *Store) Scan(pat Pattern) *Scan {
	sc := new(Scan)
	s.openScan(sc, orderFor(pat.boundMask()), pat)
	return sc
}

// openScan positions sc over the triples matching pat in index o, whose
// sort key must start with pat's bound positions. It fills a cursor in
// place, so a probe can keep its cursors in a stack array.
func (s *Store) openScan(sc *Scan, o order, pat Pattern) {
	lo, hi := s.baseRange(o, pat)
	*sc = Scan{rest: s.idx[o][lo:hi], ord: o}
	if s.delta != nil {
		sc.del, sc.ins = s.delta.runs(o, pat)
	}
	sc.initRuns(pat)
}

// ScanSeek opens a seekable cursor over the triples matching pat, sorted
// with the unbound triple positions ordered exactly as varPos lists them
// (0=S, 1=P, 2=O). varPos must contain each unbound position of pat once;
// among the six permutation indexes there is always exactly one whose sort
// key is the bound positions followed by varPos, so the cursor walks a
// contiguous binary-searched range just like Scan. Overlay stores expose
// the same cursor over base+delta with deletions masked and insertions
// interleaved. This is the trie-iterator order contract of the leapfrog
// triejoin: level d of the trie is varPos[d].
func (s *Store) ScanSeek(pat Pattern, varPos []int) *Scan {
	mask := pat.boundMask()
	nb := 3 - len(varPos)
	chosen := numOrders
	for o := order(0); o < numOrders; o++ {
		p := orderPositions[o]
		ok := true
		for i := 0; i < nb; i++ {
			if mask&(1<<p[i]) == 0 {
				ok = false
				break
			}
		}
		for i, vp := range varPos {
			if !ok || p[nb+i] != vp {
				ok = false
				break
			}
		}
		if ok {
			chosen = o
			break
		}
	}
	if chosen == numOrders {
		panic(fmt.Sprintf("store: no index order for pattern %v with varPos %v", pat, varPos))
	}
	sc := new(Scan)
	s.openScan(sc, chosen, pat)
	return sc
}

// SeekVar repositions the cursor at the first triple of its full range
// whose unbound-position key components are >= (v0, v1, ...), comparing
// lexicographically in the cursor's index order; unused trailing
// components are ignored (pass 0). Seeks move in either direction over the
// range — the cursor's Next/Head position is reset to the seek target.
// On an overlay every run (base, deletions, insertions) is repositioned by
// its own binary search; a deletion and its base twin compare equal, so
// the every-deletion-masks-one-undelivered-triple invariant is preserved
// and Remaining stays exact.
func (sc *Scan) SeekVar(v0, v1, v2 dict.ID) {
	if sc.sub != nil {
		for i := range sc.sub {
			sc.sub[i].SeekVar(v0, v1, v2)
		}
		return
	}
	k := sc.prefix
	vs := [3]dict.ID{v0, v1, v2}
	for i := sc.nb; i < 3; i++ {
		k[i] = vs[i-sc.nb]
	}
	sc.rest = seekRun(sc.rest0, sc.ord, k)
	sc.del = seekRun(sc.del0, sc.ord, k)
	sc.ins = seekRun(sc.ins0, sc.ord, k)
}

// seekRun returns the suffix of run starting at the first triple whose key
// under o is >= k.
func seekRun(run []IDTriple, o order, k [3]dict.ID) []IDTriple {
	return run[lowerBound(run, orderPositions[o], 0, len(run), packPrefix(k)):]
}

// Head returns the next undelivered triple without consuming it, or false
// when the cursor is exhausted. Deleted base triples at the head are
// discarded eagerly (they deliver nothing, so this never reorders the
// stream).
func (sc *Scan) Head() (IDTriple, bool) {
	if sc.sub != nil {
		return sc.mergedHead()
	}
	for len(sc.rest) > 0 && len(sc.del) > 0 && sc.rest[0] == sc.del[0] {
		sc.rest = sc.rest[1:]
		sc.del = sc.del[1:]
	}
	switch {
	case len(sc.rest) == 0 && len(sc.ins) == 0:
		return IDTriple{}, false
	case len(sc.rest) == 0:
		return sc.ins[0], true
	case len(sc.ins) == 0 || !lessByOrder(sc.ins[0], sc.rest[0], sc.ord):
		return sc.rest[0], true
	default:
		return sc.ins[0], true
	}
}

// HeadVar returns the unbound-position key components of the head triple
// in the cursor's index order — the trie key a leapfrog iterator compares
// and seeks on. Trailing components beyond the unbound count are zero.
func (sc *Scan) HeadVar() ([3]dict.ID, bool) {
	t, ok := sc.Head()
	if !ok {
		return [3]dict.ID{}, false
	}
	a, b, c := key(t, sc.ord)
	full := [3]dict.ID{a, b, c}
	var out [3]dict.ID
	copy(out[:], full[sc.nb:])
	return out, true
}

// Next returns the next batch of at most max triples, or nil when the
// cursor is exhausted. max <= 0 returns everything remaining in one
// batch. Without pending delta changes the batch is a zero-copy subslice
// of the index; a merging cursor returns its internal buffer, valid until
// the next call.
func (sc *Scan) Next(max int) []IDTriple {
	if sc.sub != nil {
		return sc.nextMerged(max)
	}
	if len(sc.del) == 0 && len(sc.ins) == 0 {
		if len(sc.rest) == 0 {
			return nil
		}
		if max <= 0 || max >= len(sc.rest) {
			out := sc.rest
			sc.rest = nil
			return out
		}
		out := sc.rest[:max:max]
		sc.rest = sc.rest[max:]
		return out
	}
	n := sc.Remaining()
	if n == 0 {
		return nil
	}
	if max > 0 && max < n {
		n = max
	}
	if cap(sc.buf) < n {
		sc.buf = make([]IDTriple, 0, n)
	}
	sc.buf = mergeRuns(sc.buf[:0], n, &sc.rest, &sc.del, &sc.ins, orderPositions[sc.ord])
	return sc.buf
}

// Remaining returns how many triples the cursor has not yet delivered.
// Every pending deletion masks exactly one undelivered base triple (a
// cursor invariant), so the count is exact.
func (sc *Scan) Remaining() int {
	if sc.sub != nil {
		n := 0
		for i := range sc.sub {
			n += sc.sub[i].Remaining()
		}
		return n
	}
	return len(sc.rest) - len(sc.del) + len(sc.ins)
}

// ScanPartitions opens up to n cursors that jointly cover the triples
// matching pat: the merged stream Scan would deliver is split into n
// contiguous morsels at triple granularity. Concatenating the partitions'
// triples in slice order yields exactly Scan(pat)'s stream, so a
// morsel-driven executor that merges per-partition results in partition
// order reproduces the serial scan bit-for-bit. On a plain store the
// morsels are equal-sized zero-copy views of the index; on an overlay the
// split points are chosen from the larger of the base run and the insert
// run and the other runs are aligned to them by binary search, so sizes
// stay balanced up to the delta skew (some partitions may even be empty —
// they deliver nothing and preserve the concatenation order). Fewer than
// n cursors are returned when the merged range holds fewer than n
// triples; an empty range returns nil. Every cursor is independent and
// safe to drive from concurrent goroutines.
func (s *Store) ScanPartitions(pat Pattern, n int) []*Scan {
	o := orderFor(pat.boundMask())
	lo, hi := s.baseRange(o, pat)
	base := s.idx[o][lo:hi]
	var del, ins []IDTriple
	if s.delta != nil {
		del, ins = s.delta.runs(o, pat)
	}
	total := len(base) - len(del) + len(ins)
	if total == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	if len(del) == 0 && len(ins) == 0 {
		out := make([]*Scan, n)
		for i := 0; i < n; i++ {
			plo := i * len(base) / n
			phi := (i + 1) * len(base) / n
			out[i] = &Scan{rest: base[plo:phi:phi], ord: o}
			out[i].initRuns(pat)
		}
		return out
	}
	// Pick boundary triples from the larger run, then align every run to
	// the boundaries with a lower-bound search. A deleted triple and its
	// base twin compare equal, so they always land in the same partition.
	primary, secondary := base, ins
	if len(ins) > len(base) {
		primary, secondary = ins, base
	}
	p := orderPositions[o]
	out := make([]*Scan, n)
	pPrev, sPrev, dPrev := 0, 0, 0
	for i := 0; i < n; i++ {
		pNext, sNext, dNext := len(primary), len(secondary), len(del)
		if i < n-1 {
			pNext = (i + 1) * len(primary) / n
			if pNext < len(primary) {
				boundary := packKey(&primary[pNext], p)
				sNext = lowerBound(secondary, p, 0, len(secondary), boundary)
				dNext = lowerBound(del, p, 0, len(del), boundary)
			}
		}
		sc := &Scan{ord: o}
		if len(ins) > len(base) {
			sc.ins = primary[pPrev:pNext:pNext]
			sc.rest = secondary[sPrev:sNext:sNext]
		} else {
			sc.rest = primary[pPrev:pNext:pNext]
			sc.ins = secondary[sPrev:sNext:sNext]
		}
		sc.del = del[dPrev:dNext:dNext]
		sc.initRuns(pat)
		out[i] = sc
		pPrev, sPrev, dPrev = pNext, sNext, dNext
	}
	return out
}
