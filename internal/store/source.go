package store

import "repro/internal/dict"

// Source is the read seam the plan and exec layers run against: everything
// a query needs from a triple store — exact counts, merged matches,
// streaming cursors, and the statistics the optimizer's cardinality
// estimator is built on. It is sealed by Match's unexported order result:
// *Store, a hexastore (heap-built or mmap-backed, plain or overlay),
// implements it, and so does *Sharded, which embeds one.
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
}

var (
	_ Source = (*Store)(nil)
	_ Source = (*Sharded)(nil)
)
