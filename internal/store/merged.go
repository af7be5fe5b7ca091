package store

// This file implements the k-way-merging side of the Scan cursor: the
// shard-federation counterpart of the overlay merge in iter.go. A merged
// cursor holds child cursors over the same pattern and index order whose
// triple sets are disjoint (shards partition by subject, and no triple is
// duplicated), so the merge is unambiguous: repeatedly emitting the
// smallest head under the index order reproduces exactly the stream a
// single store over the union would deliver. That stream identity — not
// any scheduling property — is what makes sharded execution bit-identical
// to unsharded execution.

// maxStackShards is how many children a merge tracks in stack arrays.
const maxStackShards = 16

// mergeScans builds a cursor over the union of children's streams. All
// children must share the cursor's index order and match the same
// pattern. Children that are already exhausted are dropped, and a single
// surviving child is returned directly: a pattern whose matches all sit
// in one shard pays no merge.
func mergeScans(children []Scan, o order) *Scan {
	live := children[:0]
	for _, c := range children {
		if c.Remaining() > 0 {
			live = append(live, c)
		}
	}
	switch len(live) {
	case 0:
		return &Scan{ord: o}
	case 1:
		return &live[0]
	}
	return &Scan{ord: o, sub: live}
}

// A mergeHead is child i's next triple with its packed sort key.
type mergeHead struct {
	key packedKey
	t   IDTriple
	i   int
}

func headOf(c *Scan, i int, p [3]int) (mergeHead, bool) {
	t, ok := c.Head()
	return mergeHead{key: packKey(&t, p), t: t, i: i}, ok
}

// mergedHead is Head for a merging cursor: the smallest child head, which
// is unique, since children hold disjoint triple sets.
func (sc *Scan) mergedHead() (IDTriple, bool) {
	p := orderPositions[sc.ord]
	best, found := mergeHead{}, false
	for i := range sc.sub {
		if h, ok := headOf(&sc.sub[i], i, p); ok && (!found || h.key.below(best.key)) {
			best, found = h, true
		}
	}
	return best.t, found
}

// mergeInto appends the next n triples of the union of children's
// streams (fewer if they run out) to out. Each step finds the smallest
// cached head key and the runner-up in one pass; a plain child then hands
// over, in one copy, its whole run below the runner-up (found by
// galloping), an overlay child one triple, and the last live child
// drains through its own Next.
func mergeInto(children []Scan, o order, out []IDTriple, n int) []IDTriple {
	p := orderPositions[o]
	var stack [maxStackShards]mergeHead
	heads := stack[:0]
	if len(children) > len(stack) {
		heads = make([]mergeHead, 0, len(children))
	}
	for i := range children {
		if h, ok := headOf(&children[i], i, p); ok {
			heads = append(heads, h)
		}
	}
	for len(out) < n && len(heads) > 0 {
		if len(heads) == 1 {
			return append(out, children[heads[0].i].Next(n-len(out))...)
		}
		m, r := 0, -1 // the smallest head and the runner-up
		for j := 1; j < len(heads); j++ {
			switch k := heads[j].key; {
			case k.below(heads[m].key):
				m, r = j, m
			case r < 0 || k.below(heads[r].key):
				r = j
			}
		}
		c := &children[heads[m].i]
		k := 1 // the length of c's run below the runner-up's head
		if len(c.del) == 0 && len(c.ins) == 0 {
			run := c.rest[:min(len(c.rest), n-len(out))]
			if len(run) > 1 && keyBelow(&run[1], p, heads[r].key) {
				k = gallop(run, p, 2, heads[r].key)
			}
		}
		out = append(out, c.Next(k)...)
		if h, ok := headOf(c, heads[m].i, p); ok {
			heads[m] = h
		} else {
			heads[m] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
	return out
}

// nextMerged is Next for a merging cursor: up to max triples assembled
// into the reused batch buffer by mergeInto.
func (sc *Scan) nextMerged(max int) []IDTriple {
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
	sc.buf = mergeInto(sc.sub, sc.ord, sc.buf[:0], n)
	return sc.buf
}
