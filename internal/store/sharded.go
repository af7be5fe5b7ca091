package store

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// Sharded is a hash-partitioned federation of per-shard *Stores behind
// the same Source seam a single store serves: triples are routed to
// shards by a hash of their subject ID, every shard is an ordinary
// immutable hexastore (heap or mmap-backed, plain or overlay, with its
// own Delta and MVCC generation), and all shards share one dictionary so
// IDs join and decode identically across shards.
//
// Placement is a read invariant (LoadSharded checks it): every triple
// lives in its subject's shardOf shard, so a subject-bound pattern is
// answered by that home shard alone. Other patterns federate at the
// index-run level: each shard's run is sorted over a disjoint triple
// subset, so k-way merging the runs (mergeInto) reproduces exactly the
// stream a single store over the union would deliver. As the streams are
// identical and the coordinator keeps exact global statistics (Count sums
// over disjoint shards; DistinctS and the rdf:type class index partition
// cleanly by subject; DistinctO is maintained globally, since distinct
// objects do not sum across shards), the optimizer picks identical plans
// and the executor produces bit-identical rows and Cout/Work/Scanned
// accounting at any shard count.
//
// A Sharded is immutable, like Store: updates go through NewDelta /
// ShardedDelta and publish a fresh Sharded.
type Sharded struct {
	shards []*Store
	dict   *dict.Dict
	n      int                   // total triples (sum of shard sizes)
	pstats map[dict.ID]PredStats // exact global per-predicate statistics
}

// shardOf routes a subject ID to its home shard (Fibonacci hashing on the
// ID). The routing is deterministic for a given dictionary, which is all
// correctness needs — results are invariant to placement.
func shardOf(s dict.ID, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(s) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(n))
}

// NewSharded partitions st's triples (delta merged in, for an overlay)
// across n shards by subject hash. The shards share st's dictionary and
// each is built through the standard parallel index construction; the
// global statistics are st's own exact values, so a Sharded and the store
// it came from are indistinguishable to the planner. At n <= 1 st itself
// becomes the one shard, in O(1): an overlay keeps its pending delta and
// a mapped store keeps its mapping.
func NewSharded(st *Store, n int) *Sharded {
	if n <= 1 {
		return &Sharded{shards: []*Store{st}, dict: st.dict, n: st.Len(), pstats: st.pstats}
	}
	all, _ := st.Match(Pattern{})
	counts := make([]int, n)
	for _, t := range all {
		counts[shardOf(t.S, n)]++
	}
	buckets := make([][]IDTriple, n)
	for i := range buckets {
		buckets[i] = make([]IDTriple, 0, counts[i])
	}
	for _, t := range all {
		b := shardOf(t.S, n)
		buckets[b] = append(buckets[b], t)
	}
	shards := make([]*Store, n)
	for i := range shards {
		shards[i] = buildIndexes(st.dict, buckets[i], BuildOptions{})
	}
	return &Sharded{
		shards: shards,
		dict:   st.dict,
		n:      st.Len(),
		pstats: st.pstats,
	}
}

// Federate returns src as a federation: a *Sharded as it is, a plain
// store partitioned by NewSharded(st, n) — wrapped as one shard when
// n <= 1.
func Federate(src Source, n int) *Sharded {
	if sh, ok := src.(*Sharded); ok {
		return sh
	}
	return NewSharded(src.(*Store), n) // Source is sealed: Store or Sharded
}

// Source returns the view queries read through: the one shard itself
// when there is one, so single-store reads pay no federation call, and
// sh otherwise.
func (sh *Sharded) Source() Source {
	if len(sh.shards) == 1 {
		return sh.shards[0]
	}
	return sh
}

// NumShards returns the shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// Shard returns shard i (for per-shard stats and tests); treat it as
// read-only.
func (sh *Sharded) Shard(i int) *Store { return sh.shards[i] }

// Dict returns the dictionary shared by every shard.
func (sh *Sharded) Dict() *dict.Dict { return sh.dict }

// Len returns the total number of triples across all shards.
func (sh *Sharded) Len() int { return sh.n }

// Backend names the composite backing: "sharded(N, heap)", "sharded(N,
// mapped)", or "sharded(N, mixed)" when per-shard compaction has left
// shards on different backings.
func (sh *Sharded) Backend() string {
	b := sh.shards[0].Backend()
	for _, s := range sh.shards[1:] {
		if s.Backend() != b {
			b = "mixed"
			break
		}
	}
	return fmt.Sprintf("sharded(%d, %s)", len(sh.shards), b)
}

// Mappings returns the distinct snapshot mappings backing the shards
// (empty for pure heap shards). A service generation retains every one of
// them, so /reload pins all shards' mappings until the last in-flight
// query drains.
func (sh *Sharded) Mappings() []*Mapping {
	var out []*Mapping
	for _, s := range sh.shards {
		m := s.Mapping()
		if m == nil {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == m {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, m)
		}
	}
	return out
}

// MappedBytes returns the total size of the distinct mappings backing the
// shards (0 for heap).
func (sh *Sharded) MappedBytes() int {
	n := 0
	for _, m := range sh.Mappings() {
		n += m.Size()
	}
	return n
}

// Pending returns the total overlay delta sizes across shards (zero when
// every shard is fully indexed).
func (sh *Sharded) Pending() (inserts, deletes int) {
	for _, s := range sh.shards {
		if d := s.Delta(); d != nil {
			inserts += d.InsertCount()
			deletes += d.DeleteCount()
		}
	}
	return inserts, deletes
}

// BaseLen returns the total size of the shards' fully indexed bases.
func (sh *Sharded) BaseLen() int {
	n := 0
	for _, s := range sh.shards {
		if d := s.Delta(); d != nil {
			n += d.Base().Len()
		} else {
			n += s.Len()
		}
	}
	return n
}

// home returns the one shard that can hold pat's matches — the subject's
// home shard, or the only shard — and nil when every shard must be read.
func (sh *Sharded) home(pat Pattern) *Store {
	if pat.S == dict.None && len(sh.shards) > 1 {
		return nil
	}
	return sh.shards[shardOf(pat.S, len(sh.shards))]
}

// Count returns the exact number of triples matching pat: shards hold
// disjoint triple sets, so per-shard exact counts sum exactly.
func (sh *Sharded) Count(pat Pattern) int {
	if h := sh.home(pat); h != nil {
		return h.Count(pat)
	}
	n := 0
	for _, s := range sh.shards {
		n += s.Count(pat)
	}
	return n
}

// Match returns the triples matching pat in index sort order, k-way
// merged across shards. When exactly one shard holds matches (always the
// case for subject-bound patterns) the result is that shard's own Match.
func (sh *Sharded) Match(pat Pattern) ([]IDTriple, order) {
	m, _, o := sh.matchInto(pat, nil)
	return m, o
}

// MatchBuf is Match with caller-provided scratch, mirroring
// Store.MatchBuf: the merged run is assembled in scratch's backing array
// unless a single shard's zero-copy subslice suffices.
func (sh *Sharded) MatchBuf(pat Pattern, scratch []IDTriple) (matches, scratch2 []IDTriple) {
	m, scr, _ := sh.matchInto(pat, scratch)
	return m, scr
}

func (sh *Sharded) matchInto(pat Pattern, scratch []IDTriple) ([]IDTriple, []IDTriple, order) {
	if h := sh.home(pat); h != nil {
		return h.matchInto(pat, scratch)
	}
	o := orderFor(pat.boundMask())
	// Live cursors packed into a stack array unless the federation is wider.
	var stack [maxStackShards]Scan
	cur := stack[:]
	if len(sh.shards) > len(stack) {
		cur = make([]Scan, len(sh.shards))
	}
	k, need, only := 0, 0, -1
	for i, s := range sh.shards {
		s.openScan(&cur[k], o, pat)
		if r := cur[k].Remaining(); r > 0 {
			k++
			need += r
			only = i
		}
	}
	switch k {
	case 0:
		return nil, scratch, o
	case 1:
		return sh.shards[only].matchInto(pat, scratch)
	}
	out := scratch[:0]
	if cap(out) < need {
		out = make([]IDTriple, 0, need)
	}
	out = mergeInto(cur[:k], o, out, need)
	return out, out[:0], o
}

// Scan opens a merged batch cursor over the triples matching pat.
func (sh *Sharded) Scan(pat Pattern) *Scan {
	if h := sh.home(pat); h != nil {
		return h.Scan(pat)
	}
	children := make([]Scan, len(sh.shards))
	for i, s := range sh.shards {
		s.openScan(&children[i], orderFor(pat.boundMask()), pat)
	}
	return mergeScans(children, children[0].ord)
}

// PredicateStats returns the exact global statistics for predicate p.
func (sh *Sharded) PredicateStats(p dict.ID) PredStats { return sh.pstats[p] }

// Predicates returns the IDs of all predicates present, ascending.
func (sh *Sharded) Predicates() []dict.ID {
	out := make([]dict.ID, 0, len(sh.pstats))
	for p := range sh.pstats {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SubjectsOfClass returns the sorted subject IDs having rdf:type c,
// across shards. Subjects partition cleanly by shard (they are what the
// hash routes on), so the per-shard lists are disjoint and one sort of
// their concatenation is exact.
func (sh *Sharded) SubjectsOfClass(c dict.ID) []dict.ID {
	if len(sh.shards) == 1 {
		return sh.shards[0].SubjectsOfClass(c)
	}
	var out []dict.ID
	for _, s := range sh.shards {
		out = append(out, s.SubjectsOfClass(c)...)
	}
	slices.Sort(out)
	return out
}

// DistinctValues returns the distinct IDs in the given position of
// triples matching pat, with the same ordering contract as
// Store.DistinctValues.
func (sh *Sharded) DistinctValues(position int, pat Pattern) []dict.ID {
	if h := sh.home(pat); h != nil {
		return h.DistinctValues(position, pat)
	}
	triples, o := sh.Match(pat)
	return distinctValues(triples, o, pat.boundMask(), position)
}

// ShardedDelta is the sharded counterpart of Delta: one pending Delta per
// shard, extended together and published together. Triples route to their
// home shard by subject hash; a triple's entire history (insert, delete,
// resurrect) plays out inside one shard's delta, so per-shard RDF set
// semantics compose to exactly the unsharded semantics.
type ShardedDelta struct {
	base   *Sharded
	deltas []*Delta
	pstats map[dict.ID]PredStats // exact global statistics of the merged view
}

// NewDelta returns the pending sharded delta: each shard's own pending
// delta (empty for plain shards), so updates over a sharded overlay
// extend it rather than stack overlays.
func (sh *Sharded) NewDelta() *ShardedDelta {
	ds := make([]*Delta, len(sh.shards))
	for i, s := range sh.shards {
		ds[i] = s.NewDelta()
	}
	return &ShardedDelta{base: sh, deltas: ds, pstats: sh.pstats}
}

// Base returns the Sharded the delta applies to.
func (sd *ShardedDelta) Base() *Sharded { return sd.base }

// ShardDelta returns shard i's pending delta.
func (sd *ShardedDelta) ShardDelta(i int) *Delta { return sd.deltas[i] }

// InsertCount returns the number of pending inserted triples across all
// shards.
func (sd *ShardedDelta) InsertCount() int {
	n := 0
	for _, d := range sd.deltas {
		n += d.InsertCount()
	}
	return n
}

// DeleteCount returns the number of pending deleted triples across all
// shards.
func (sd *ShardedDelta) DeleteCount() int {
	n := 0
	for _, d := range sd.deltas {
		n += d.DeleteCount()
	}
	return n
}

// Size returns the total number of pending changes.
func (sd *ShardedDelta) Size() int { return sd.InsertCount() + sd.DeleteCount() }

// Empty reports whether no shard has pending changes.
func (sd *ShardedDelta) Empty() bool { return sd.Size() == 0 }

// ApplyOps routes an ordered operation sequence to the shards and extends
// each shard's delta (copy-on-write; the receiver is never mutated).
// Insert terms are pre-encoded into the shared dictionary in operation
// order first, so the dictionary assigns exactly the IDs an unsharded
// ApplyOps would — row values, ORDER BY and plan signatures stay
// bit-identical across shard counts even for updates that introduce new
// terms. The global statistics are patched from every shard's touches
// the way Delta.ApplyOps patches one shard's, with a group's count in
// the parent view summed across shards. Returns sd itself when nothing
// changed, preserving the pointer-equality no-op contract.
func (sd *ShardedDelta) ApplyOps(ops []DeltaOp) (*ShardedDelta, error) {
	n := len(sd.deltas)
	if n == 1 {
		// One shard: its Delta validates and assigns new-term IDs in op
		// order itself, with no routing.
		nd, err := sd.deltas[0].ApplyOps(ops)
		switch {
		case err != nil:
			return nil, err
		case nd == sd.deltas[0]:
			return sd, nil
		}
		return &ShardedDelta{base: sd.base, deltas: []*Delta{nd}, pstats: nd.pstats}, nil
	}
	if err := validOps(ops); err != nil {
		return nil, err
	}
	dd := sd.base.dict
	for _, op := range ops {
		if !op.Insert {
			continue // deletes are lookup-only and never grow the dictionary
		}
		for _, t := range op.Triples {
			dd.Encode(t.S)
			dd.Encode(t.P)
			dd.Encode(t.O)
		}
	}
	routed := make([][]DeltaOp, n)
	parts := make([][]rdf.Triple, n)
	for _, op := range ops {
		for i := range parts {
			parts[i] = nil
		}
		for _, t := range op.Triples {
			var (
				sid dict.ID
				ok  bool
			)
			if op.Insert {
				sid = dd.Encode(t.S) // already encoded above; returns the ID
			} else if sid, ok = dd.Lookup(t.S); !ok {
				continue // unknown subject: the delete is a no-op everywhere
			}
			b := shardOf(sid, n)
			parts[b] = append(parts[b], t)
		}
		for i, ts := range parts {
			if len(ts) > 0 {
				routed[i] = append(routed[i], DeltaOp{Insert: op.Insert, Triples: ts})
			}
		}
	}
	out := make([]*Delta, n)
	var all viewTouches
	changed := false
	for i, d := range sd.deltas {
		if len(routed[i]) == 0 {
			out[i] = d
			continue
		}
		nd, tc := d.apply(routed[i])
		out[i] = nd
		if tc == nil {
			continue
		}
		changed = true
		for _, o := range []order{orderPSO, orderPOS} {
			// Shards hold disjoint triples: the union is a plain merge.
			all.added[o] = applyRun(all.added[o], nil, tc.added[o], o)
			all.removed[o] = applyRun(all.removed[o], nil, tc.removed[o], o)
		}
	}
	if !changed {
		return sd, nil
	}
	pstats := patchStats(sd.pstats, &all, func(o order, pat Pattern) int {
		c := 0
		for _, d := range sd.deltas {
			c += d.viewCount(o, pat)
		}
		return c
	})
	return &ShardedDelta{base: sd.base, deltas: out, pstats: pstats}, nil
}

// Overlay publishes the delta as a sharded overlay snapshot: every shard
// with pending changes becomes an overlay store, the rest are shared
// untouched.
func (sd *ShardedDelta) Overlay() *Sharded {
	if sd.Empty() {
		return sd.base
	}
	return sd.publish(func(*Delta) bool { return false }, BuildOptions{})
}

// Commit folds every shard's pending delta into a fresh fully indexed
// shard store.
func (sd *ShardedDelta) Commit(opts BuildOptions) *Sharded {
	if sd.Empty() {
		return sd.base
	}
	return sd.publish(func(*Delta) bool { return true }, opts)
}

// Publish builds the next Sharded snapshot with per-shard auto-compaction:
// a shard whose pending delta reaches threshold(its own base size) folds
// into a fresh store, so one hot shard compacts without rebuilding the
// cold ones; the others publish overlays, and a threshold <= 0 never
// folds. compacted reports whether any shard folded. The global
// statistics are the ones the delta carries.
func (sd *ShardedDelta) Publish(threshold func(baseLen int) int, opts BuildOptions) (next *Sharded, compacted bool) {
	if sd.Empty() {
		return sd.base, false
	}
	next = sd.publish(func(d *Delta) bool {
		t := threshold(d.Base().Len())
		fold := t > 0 && d.Size() >= t
		compacted = compacted || fold
		return fold
	}, opts)
	return next, compacted
}

func (sd *ShardedDelta) publish(compact func(d *Delta) bool, opts BuildOptions) *Sharded {
	shards := make([]*Store, len(sd.deltas))
	total := 0
	for i, d := range sd.deltas {
		if compact(d) {
			shards[i] = d.Commit(opts)
		} else {
			shards[i] = d.Overlay()
		}
		total += shards[i].Len()
	}
	return &Sharded{shards: shards, dict: sd.base.dict, n: total, pstats: sd.pstats}
}
