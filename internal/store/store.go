// Package store implements an in-memory, dictionary-encoded RDF triple
// store with all six subject/predicate/object permutation indexes (the
// Hexastore / RDF-3X layout). Every store value is immutable; every
// triple pattern with any combination of bound positions is answered by a
// binary-searched contiguous range of exactly one index, which also gives
// exact pattern cardinalities in O(log n). Exact counts are what the Cout
// cost model and the optimizer's cardinality estimator are built on.
//
// Updates never mutate a store: a Delta (sorted insert/delete sets over a
// base store, see delta.go) publishes either as an overlay snapshot whose
// reads merge the delta in on the fly — with counts still exact — or as a
// freshly indexed store (Commit). MVCC falls out of immutability: writers
// build the next snapshot and swap a pointer, readers keep the one they
// pinned.
package store

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// IDTriple is a dictionary-encoded triple.
type IDTriple struct {
	S, P, O dict.ID
}

// Pattern is a triple pattern over IDs; dict.None (0) marks a wildcard
// position.
type Pattern struct {
	S, P, O dict.ID
}

// String renders the pattern with '?' wildcards, for debugging.
func (p Pattern) String() string {
	f := func(id dict.ID) string {
		if id == dict.None {
			return "?"
		}
		return fmt.Sprintf("%d", id)
	}
	return fmt.Sprintf("(%s %s %s)", f(p.S), f(p.P), f(p.O))
}

// boundMask returns a 3-bit mask of bound positions: bit0=S, bit1=P, bit2=O.
func (p Pattern) boundMask() int {
	m := 0
	if p.S != dict.None {
		m |= 1
	}
	if p.P != dict.None {
		m |= 2
	}
	if p.O != dict.None {
		m |= 4
	}
	return m
}

// Store is an immutable triple store. Build one with a Builder. An
// overlay store (see Delta.Overlay) additionally carries a delta whose
// insertions and deletions every read path merges in on the fly; a plain
// store's delta is nil and its reads stay zero-copy.
type Store struct {
	dict    *dict.Dict
	n       int
	mapped  *Mapping              // backing of idx when mapped (see mapping.go); nil on the heap
	idx     [numOrders][]IDTriple // the six permutation indexes; all read paths go through these
	pstats  map[dict.ID]PredStats
	typeIdx map[dict.ID][]dict.ID // rdf:type class -> sorted subject IDs
	typeID  dict.ID               // ID of rdf:type, or None if absent
	delta   *Delta                // non-nil for overlay snapshots
	sdir    *subjectDir           // subject groups of idx, shared with overlays
}

// Backend names the store's index backing: "heap" for built/deserialized
// stores, "mapped" for stores opened over a v4 snapshot image.
func (s *Store) Backend() string {
	if s.mapped != nil {
		return "mapped"
	}
	return "heap"
}

// Mapping returns the refcounted snapshot mapping backing this store, or
// nil for a heap store. Overlay stores and deltas over a mapped base
// report the base's mapping (their dictionary and base indexes point into
// it); Commit produces heap indexes but keeps the mapped dictionary base,
// so committed stores report it too.
func (s *Store) Mapping() *Mapping {
	if s.mapped != nil {
		return s.mapped
	}
	if mt, ok := s.dict.Base().(*mappedTerms); ok {
		return mt.mapping()
	}
	return nil
}

// MappedBytes returns the size of the backing mapping, 0 for heap stores.
func (s *Store) MappedBytes() int {
	if m := s.Mapping(); m != nil {
		return m.Size()
	}
	return 0
}

// PredStats holds exact per-predicate statistics used by the cardinality
// estimator.
type PredStats struct {
	Count     int // triples with this predicate
	DistinctS int // distinct subjects among them
	DistinctO int // distinct objects among them
}

// Builder accumulates triples and produces an immutable Store.
type Builder struct {
	dict    *dict.Dict
	triples []IDTriple
	dedup   map[IDTriple]struct{}
}

// NewBuilder returns an empty Builder with a fresh dictionary.
func NewBuilder() *Builder {
	return &Builder{
		dict:  dict.New(),
		dedup: make(map[IDTriple]struct{}),
	}
}

// Dict exposes the dictionary so generators can pre-encode terms.
func (b *Builder) Dict() *dict.Dict { return b.dict }

// Add encodes and inserts one triple. Duplicate triples are ignored
// (RDF graphs are sets). Invalid triples are rejected.
func (b *Builder) Add(t rdf.Triple) error {
	if !t.Valid() {
		return fmt.Errorf("store: invalid triple %v", t)
	}
	it := IDTriple{
		S: b.dict.Encode(t.S),
		P: b.dict.Encode(t.P),
		O: b.dict.Encode(t.O),
	}
	b.AddID(it)
	return nil
}

// AddID inserts an already-encoded triple, ignoring duplicates. The caller
// must have produced the IDs with this builder's Dict.
func (b *Builder) AddID(it IDTriple) {
	if _, dup := b.dedup[it]; dup {
		return
	}
	b.dedup[it] = struct{}{}
	b.triples = append(b.triples, it)
}

// Len returns the number of distinct triples added so far.
func (b *Builder) Len() int { return len(b.triples) }

// LoadNTriples reads N-Triples from r into the builder.
func (b *Builder) LoadNTriples(r io.Reader) error {
	rd := rdf.NewReader(r)
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := b.Add(t); err != nil {
			return err
		}
	}
}

// Build sorts the six permutation indexes, computes statistics and returns
// the immutable store. The builder must not be used afterwards. Index
// construction runs in parallel (see BuildOpts); the result is
// byte-identical to a serial build.
func (b *Builder) Build() *Store { return b.BuildOpts(BuildOptions{}) }

// BuildOpts is Build with explicit construction options. The builder must
// not be used afterwards.
func (b *Builder) BuildOpts(opts BuildOptions) *Store {
	triples := b.triples
	b.triples = nil
	b.dedup = nil
	return buildIndexes(b.dict, triples, opts)
}

// Rebuild constructs a new Store over the same dictionary and triple set,
// re-deriving every index and statistic from a copy of the base index. It
// exists so benchmarks and equivalence tests can exercise the
// construction path in isolation from parsing and dictionary encoding.
// Rebuilding an overlay store folds its delta in (equivalent to Commit).
func (s *Store) Rebuild(opts BuildOptions) *Store {
	if s.delta != nil {
		return s.delta.Commit(opts)
	}
	cp := make([]IDTriple, len(s.idx[orderSPO]))
	copy(cp, s.idx[orderSPO])
	return buildIndexes(s.dict, cp, opts)
}

// Dict returns the store's dictionary.
func (s *Store) Dict() *dict.Dict { return s.dict }

// Len returns the number of triples.
func (s *Store) Len() int { return s.n }

// Match returns the triples matching pat in the sort order of the
// best-fitting permutation index. On a plain store the result is a
// zero-copy subslice of that index; an overlay store with pending changes
// in the range materializes the merged run (base minus deletions, with
// insertions interleaved in index order) into a fresh slice. The returned
// order value is the index's sort order; callers that only need the set of
// matches can ignore it.
func (s *Store) Match(pat Pattern) ([]IDTriple, order) {
	m, _, o := s.matchInto(pat, nil)
	return m, o
}

// MatchBuf is Match with caller-provided scratch for the overlay merge
// path: when the matched range has pending delta changes, the merged run
// is assembled in scratch's backing array (grown only when too small)
// instead of a fresh allocation. It returns the matches and the possibly
// grown scratch to pass back on the next call. On a plain store — or an
// overlay range without pending changes — matches is the usual zero-copy
// index subslice and scratch comes back untouched; matches must therefore
// be treated as read-only and is only valid until the next MatchBuf call
// with the same scratch. Probe loops (one Match per outer row) use this to
// stay allocation-free in steady state.
func (s *Store) MatchBuf(pat Pattern, scratch []IDTriple) (matches, scratch2 []IDTriple) {
	m, scr, _ := s.matchInto(pat, scratch)
	return m, scr
}

// matchInto implements Match and MatchBuf: zero-copy when possible,
// otherwise merging into scratch's backing array.
func (s *Store) matchInto(pat Pattern, scratch []IDTriple) ([]IDTriple, []IDTriple, order) {
	o := orderFor(pat.boundMask())
	idx := s.idx[o]
	lo, hi := s.baseRange(o, pat)
	if s.delta == nil {
		return idx[lo:hi], scratch, o
	}
	del, ins := s.delta.runs(o, pat)
	if len(del) == 0 && len(ins) == 0 {
		return idx[lo:hi], scratch, o
	}
	need := hi - lo - len(del) + len(ins)
	out := scratch[:0]
	if cap(out) < need {
		out = make([]IDTriple, 0, need)
	}
	run := idx[lo:hi]
	out = mergeRuns(out, need, &run, &del, &ins, orderPositions[o])
	return out, out[:0], o
}

// Count returns the exact number of triples matching pat in O(log n) —
// on an overlay, the base range size minus deletions plus insertions in
// the range, located by one delta lookup.
func (s *Store) Count(pat Pattern) int {
	o := orderFor(pat.boundMask())
	if s.delta != nil {
		return s.delta.viewCount(o, pat)
	}
	lo, hi := s.baseRange(o, pat)
	return hi - lo
}

// baseRange returns the half-open range [lo, hi) of the base run s.idx[o]
// matching pat, whose bound positions must be a prefix of o's sort key:
// the one lookup every read makes in a base run (delta runs go through
// Delta.runs). A subject-bound probe in SPO or SOP first takes its subject's
// group from the directory and searches only that group; the result is
// searchRange's, empty ranges included.
func (s *Store) baseRange(o order, pat Pattern) (lo, hi int) {
	idx := s.idx[o]
	if pat.S != dict.None && (o == orderSPO || o == orderSOP) {
		if glo, ghi, ok := s.sdir.group(s.idx[orderSPO], s.dict, pat.S); ok {
			if pat.P == dict.None && pat.O == dict.None {
				return glo, ghi
			}
			lo, hi = searchRange(idx[glo:ghi], o, pat)
			return glo + lo, glo + hi
		}
	}
	return searchRange(idx, o, pat)
}

// PredicateStats returns exact statistics for predicate p. The zero value
// is returned for unknown predicates.
func (s *Store) PredicateStats(p dict.ID) PredStats { return s.pstats[p] }

// Predicates returns the IDs of all predicates present, in ascending ID
// order.
func (s *Store) Predicates() []dict.ID {
	out := make([]dict.ID, 0, len(s.pstats))
	for p := range s.pstats {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SubjectsOfClass returns the sorted subject IDs having rdf:type c, sharing
// the store's backing array (callers must not modify it).
func (s *Store) SubjectsOfClass(c dict.ID) []dict.ID { return s.typeIdx[c] }

// DistinctValues returns the distinct IDs occurring in the given position
// (0=S,1=P,2=O) of triples matching pat. Used for parameter-domain
// extraction.
func (s *Store) DistinctValues(position int, pat Pattern) []dict.ID {
	// Choose an index where `position` is ordered first among the unbound
	// positions so distinct values appear in runs.
	triples, o := s.Match(pat)
	return distinctValues(triples, o, pat.boundMask(), position)
}

// distinctValues extracts the distinct IDs in `position` from matches
// delivered in order o under bound mask `mask`; shared by Store and
// Sharded.
func distinctValues(triples []IDTriple, o order, mask, position int) []dict.ID {
	var out []dict.ID
	if firstUnboundIsPosition(o, mask, position) {
		// Matches are grouped by this position: distinct values are run
		// heads, no dedup map needed.
		var last dict.ID
		for i := range triples {
			v := positionValue(triples[i], position)
			if i == 0 || v != last {
				out = append(out, v)
				last = v
			}
		}
		return out
	}
	seen := make(map[dict.ID]struct{})
	for i := range triples {
		v := positionValue(triples[i], position)
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func positionValue(t IDTriple, position int) dict.ID {
	switch position {
	case 0:
		return t.S
	case 1:
		return t.P
	default:
		return t.O
	}
}

// firstUnboundIsPosition reports whether, in order o with bound mask m, the
// first unbound position in the sort order equals `position` — i.e. matches
// are grouped by that position.
func firstUnboundIsPosition(o order, mask, position int) bool {
	for _, pos := range orderPositions[o] {
		bit := 1 << pos
		if mask&bit != 0 {
			continue
		}
		return pos == position
	}
	return false
}

// computeStats is the serial statistics path; buildParallel runs the same
// three passes concurrently.
func (s *Store) computeStats() {
	s.pstats = statsFromPSO(s.idx[orderPSO])
	mergeDistinctObjects(s.pstats, distinctObjectsFromPOS(s.idx[orderPOS]))
	s.typeIdx = make(map[dict.ID][]dict.ID)
	s.typeID = lookupType(s.dict)
	if s.typeID != dict.None {
		s.typeIdx = typeIndexFromPOS(s.idx[orderPOS], s.typeID)
	}
}

// lookupType returns the ID of rdf:type in d, or None when d has never
// encoded it.
func lookupType(d *dict.Dict) dict.ID {
	id, _ := d.Lookup(rdf.NewIRI(rdf.RDFType))
	return id
}
