package plan

import (
	"math/bits"

	"repro/internal/dict"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Set is a cardinality estimate for a set of joined patterns: the output
// cardinality, per-variable distinct-value estimates, and the bitmask of
// pattern indexes covered. Optimizers combine Sets through a Model.
type Set struct {
	Card    float64
	VarMask uint64 // bit v set ⇔ variable number v (Compiled.Vars) is bound
	// Distinct[v] estimates the distinct values of variable number v; only
	// entries whose bit is set in VarMask are meaningful.
	Distinct []float64
	Mask     uint32 // bit i set ⇔ pattern with Index i is included
}

// Model produces cardinality estimates for single patterns and joins. The
// default implementation is Estimator (exact single-pattern counts +
// independence assumption); SamplingEstimator replaces the independence
// assumption with sampled pairwise join selectivities.
//
// Both methods write into dst, whose Distinct the caller sizes to cover
// every variable number of the query, so estimating allocates nothing.
// dst must not alias a or b.
type Model interface {
	Leaf(dst *Set, cp *CompiledPattern)
	Join(dst, a, b *Set)
}

// Estimator is the default Model: single-pattern estimates are *exact*
// (the hexastore answers every pattern shape by binary search) and joins
// use the classical independence assumption with per-variable
// distinct-value counts.
type Estimator struct {
	st store.Source
}

// NewEstimator returns an estimator over st.
func NewEstimator(st store.Source) *Estimator { return &Estimator{st: st} }

// Store returns the underlying store.
func (e *Estimator) Store() store.Source { return e.st }

// PatternCard returns the exact cardinality of a compiled pattern.
func (e *Estimator) PatternCard(cp CompiledPattern) float64 {
	if cp.Missing {
		return 0
	}
	return float64(e.st.Count(cp.Pat))
}

// varDistinct estimates the number of distinct values the variable at
// position pos (0 = S, 1 = P, 2 = O) can take among the pattern's card
// matches.
func (e *Estimator) varDistinct(cp *CompiledPattern, pos int, card float64) float64 {
	if card == 0 {
		return 0
	}
	// With a bound predicate we have exact per-predicate distinct counts.
	if cp.Pat.P != dict.None {
		st := e.st.PredicateStats(cp.Pat.P)
		var d float64
		switch pos {
		case 0:
			if cp.Pat.O != dict.None {
				// (?, p, o): every match has a distinct subject.
				return card
			}
			d = float64(st.DistinctS)
		case 2:
			if cp.Pat.S != dict.None {
				return card
			}
			d = float64(st.DistinctO)
		default:
			return 1 // predicate is bound; var cannot sit there
		}
		if d > card {
			d = card
		}
		if d < 1 {
			d = 1
		}
		return d
	}
	// Unbound predicate: fall back to the global distinct count for the
	// position, capped by the pattern cardinality.
	d := float64(e.st.Dict().Len())
	if d > card {
		d = card
	}
	if d < 1 {
		d = 1
	}
	return d
}

// leafDistinct writes the distinct-value estimate of each of cp's
// variables into dst, indexed by variable number, and returns the
// pattern's cardinality. A variable repeated within the pattern is
// estimated at its first position.
func (e *Estimator) leafDistinct(dst []float64, cp *CompiledPattern) float64 {
	card := e.PatternCard(*cp)
	var seen uint64
	for pos, v := range [3]sparql.Var{cp.VarS, cp.VarP, cp.VarO} {
		if v == "" || seen&(1<<cp.num[pos]) != 0 {
			continue
		}
		seen |= 1 << cp.num[pos]
		dst[cp.num[pos]] = e.varDistinct(cp, pos, card)
	}
	return card
}

// Leaf builds the estimate for a single pattern.
func (e *Estimator) Leaf(dst *Set, cp *CompiledPattern) {
	dst.Card = e.leafDistinct(dst.Distinct, cp)
	dst.VarMask = cp.VarMask
	dst.Mask = 0
	if cp.Index >= 0 && cp.Index < 32 {
		dst.Mask = 1 << cp.Index
	}
}

// Join estimates the join of a and b under the independence assumption.
func (e *Estimator) Join(dst, a, b *Set) { joinSets(dst, a, b) }

// joinSets estimates the join of a and b into dst. For each shared
// variable v, in ascending variable number, the classical formula divides
// by max(d_a(v), d_b(v)); the fixed order makes the estimate's bits
// reproducible. Disjoint variable sets give a cross product.
func joinSets(dst, a, b *Set) {
	card := a.Card * b.Card
	for s := a.VarMask & b.VarMask; s != 0; s &= s - 1 {
		v := bits.TrailingZeros64(s)
		m := a.Distinct[v]
		if db := b.Distinct[v]; db > m {
			m = db
		}
		if m > 0 {
			card /= m
		}
	}
	dst.Card = card
	dst.VarMask = a.VarMask | b.VarMask
	dst.Mask = a.Mask | b.Mask
	for s := dst.VarMask; s != 0; s &= s - 1 {
		v := bits.TrailingZeros64(s)
		inA, inB := a.VarMask&(1<<v) != 0, b.VarMask&(1<<v) != 0
		d := a.Distinct[v]
		if !inA || inB && b.Distinct[v] < d {
			d = b.Distinct[v]
		}
		dst.Distinct[v] = d
	}
	capDistinct(dst)
}

// capDistinct lowers every distinct-value estimate of s to its
// cardinality: no variable can exceed the output cardinality.
func capDistinct(s *Set) {
	for m := s.VarMask; m != 0; m &= m - 1 {
		if v := bits.TrailingZeros64(m); s.Distinct[v] > s.Card {
			s.Distinct[v] = s.Card
		}
	}
}
