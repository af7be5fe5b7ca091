package store

import "repro/internal/dict"

// Source is the read seam the plan and exec layers run against: everything
// a query needs from a triple store — exact counts, merged matches,
// streaming cursors, and the statistics
// the optimizer's cardinality estimator is built on. Two implementations
// exist, both in this package (the interface is sealed by Match's
// unexported order result): *Store, a single hexastore (heap-built or
// mmap-backed, plain or overlay), and *Sharded, a hash-partitioned
// federation of per-shard *Stores whose merged read paths reproduce a
// single store's streams bit-for-bit.
//
// The contract every implementation upholds — and what makes executors
// agnostic to the backing — is stream identity: for the same triple set,
// Match/Scan deliver identical triples in identical order, and
// Count/Len/PredicateStats/SubjectsOfClass report exactly the values a
// freshly built single store over that set would. Identical streams and
// statistics give identical plans, rows and Cout/Work/Scanned accounting
// regardless of sharding.
type Source interface {
	// Dict returns the dictionary all triple IDs resolve against.
	Dict() *dict.Dict
	// Len returns the number of triples.
	Len() int
	// Count returns the exact number of triples matching pat.
	Count(pat Pattern) int
	// Match returns the triples matching pat in index sort order.
	Match(pat Pattern) ([]IDTriple, order)
	// MatchBuf is Match with caller-provided scratch (see Store.MatchBuf).
	MatchBuf(pat Pattern, scratch []IDTriple) (matches, scratch2 []IDTriple)
	// Scan opens a batch cursor over the triples matching pat.
	Scan(pat Pattern) *Scan
	// PredicateStats returns exact per-predicate statistics.
	PredicateStats(p dict.ID) PredStats
	// Predicates returns all predicate IDs in ascending order.
	Predicates() []dict.ID
	// SubjectsOfClass returns the sorted subject IDs with rdf:type c.
	SubjectsOfClass(c dict.ID) []dict.ID
	// DistinctValues returns the distinct IDs in the given position of
	// triples matching pat.
	DistinctValues(position int, pat Pattern) []dict.ID
	// Backend names the index backing ("heap", "mapped", or a sharded
	// composite like "sharded(4, mapped)").
	Backend() string
	// Mappings returns the distinct refcounted snapshot mappings backing
	// this source (nil for pure heap stores). Holders that outlive the
	// opener retain each.
	Mappings() []*Mapping
}

var (
	_ Source = (*Store)(nil)
	_ Source = (*Sharded)(nil)
)

// Mappings returns the store's backing mapping as a one-element slice, or
// nil for a heap store. It is the Source-interface view of Mapping.
func (s *Store) Mappings() []*Mapping {
	if m := s.Mapping(); m != nil {
		return []*Mapping{m}
	}
	return nil
}
