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
// sort key must start with pat's bound positions.
func (s *Store) openScan(sc *Scan, o order, pat Pattern) {
	lo, hi := s.baseRange(o, pat)
	*sc = Scan{rest: s.idx[o][lo:hi], ord: o}
	if s.delta != nil {
		sc.del, sc.ins = s.delta.runs(o, pat)
	}
}

// Next returns the next batch of at most max triples, or nil when the
// cursor is exhausted. max <= 0 returns everything remaining in one
// batch. Without pending delta changes the batch is a zero-copy subslice
// of the index; otherwise the batch is the cursor's internal buffer,
// valid until the next call.
func (sc *Scan) Next(max int) []IDTriple {
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
	return len(sc.rest) - len(sc.del) + len(sc.ins)
}
