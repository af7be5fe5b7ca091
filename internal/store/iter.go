package store

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
type Scan struct {
	rest []IDTriple // base index run not yet delivered
	del  []IDTriple // pending deletions within rest, same order
	ins  []IDTriple // pending insertions for the range, same order
	ord  order
	buf  []IDTriple // merged-batch buffer, reused across Next calls

	// sub, when non-nil, makes the cursor a k-way merge over per-shard
	// child cursors (same order, disjoint triple sets — see merged.go).
	// The run fields above are unused in that mode; every method
	// delegates to the children.
	sub []Scan
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
		out[i] = sc
		pPrev, sPrev, dPrev = pNext, sNext, dNext
	}
	return out
}
