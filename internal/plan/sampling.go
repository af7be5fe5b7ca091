package plan

import (
	"math/bits"
	"sort"

	"repro/internal/dict"
	"repro/internal/sparql"
	"repro/internal/store"
)

// SamplingEstimator is a correlation-aware Model: instead of assuming
// independence between join predicates, it measures pairwise join
// selectivities by probing the store with (a sample of) the actual pattern
// matches. On correlated data (the paper's central concern) the
// independence assumption can be off by orders of magnitude; sampled
// selectivities capture the correlation at a bounded cost.
//
// The model is System-R-style pairwise: card(A ⋈ B) is estimated as
// card(A)·card(B)·∏ s_ij over connected pattern pairs (i∈A, j∈B), where
// s_ij = |p_i ⋈ p_j| / (|p_i|·|p_j|) is computed once per compiled query by
// index probing. Per-variable distinct counts and everything else follow
// the base Estimator.
type SamplingEstimator struct {
	base *Estimator
	// pairSel[i][j] is s_ij for connected pattern pairs; -1 when the pair
	// shares no variable.
	pairSel [][]float64
	// varsOf[i] is the variable set (CompiledPattern.VarMask) of pattern i.
	varsOf []uint64
	// leafD[i][v] is the base estimator's distinct-value estimate for
	// variable number v in pattern i (used to pick the representative pair).
	leafD [][]float64
	// byName lists the query's variable numbers in ascending name order,
	// the order Join visits shared variables in.
	byName []uint8
	// sampleSize bounds the number of outer rows probed per pair.
	sampleSize int
}

// DefaultSampleSize bounds per-pair probing work.
const DefaultSampleSize = 512

// NewSamplingEstimator precomputes pairwise join selectivities for the
// compiled query c. sampleSize <= 0 selects DefaultSampleSize.
func NewSamplingEstimator(st store.Source, c *Compiled, sampleSize int) *SamplingEstimator {
	if sampleSize <= 0 {
		sampleSize = DefaultSampleSize
	}
	e := &SamplingEstimator{
		base:       NewEstimator(st),
		sampleSize: sampleSize,
	}
	n, nv := len(c.Patterns), c.numVars()
	e.pairSel = make([][]float64, n)
	e.varsOf = make([]uint64, n)
	e.leafD = make([][]float64, n)
	for i := range e.pairSel {
		e.pairSel[i] = make([]float64, n)
		for j := range e.pairSel[i] {
			e.pairSel[i][j] = -1
		}
		e.varsOf[i] = c.Patterns[i].VarMask
		e.leafD[i] = make([]float64, nv)
		e.base.leafDistinct(e.leafD[i], &c.Patterns[i])
	}
	for v := range c.Vars {
		e.byName = append(e.byName, uint8(v))
	}
	sort.Slice(e.byName, func(i, j int) bool { return c.Vars[e.byName[i]] < c.Vars[e.byName[j]] })
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !shareVar(c.Patterns[i], c.Patterns[j]) {
				continue
			}
			s := e.sampleJoinSelectivity(&c.Patterns[i], &c.Patterns[j])
			e.pairSel[i][j] = s
			e.pairSel[j][i] = s
		}
	}
	return e
}

// sampleJoinSelectivity estimates |a ⋈ b| / (|a|·|b|) by binding a sample
// of a's matches into b and summing exact index counts.
func (e *SamplingEstimator) sampleJoinSelectivity(a, b *CompiledPattern) float64 {
	st := e.base.Store()
	if a.Missing || b.Missing {
		return 0
	}
	ca, cb := st.Count(a.Pat), st.Count(b.Pat)
	if ca == 0 || cb == 0 {
		return 0
	}
	// Probe from the smaller side for accuracy.
	if cb < ca {
		a, b = b, a
		ca, cb = cb, ca
	}
	matches, _ := st.Match(a.Pat)
	stride := 1
	if len(matches) > e.sampleSize {
		stride = len(matches) / e.sampleSize
	}
	// Positions of a's variables shared with b, and the b positions they
	// bind.
	type link struct{ aPos, bPos int }
	var links []link
	aVars := [3]sparql.Var{a.VarS, a.VarP, a.VarO}
	bVars := [3]sparql.Var{b.VarS, b.VarP, b.VarO}
	for ai, av := range aVars {
		if av == "" {
			continue
		}
		for bi, bv := range bVars {
			if av == bv {
				links = append(links, link{aPos: ai, bPos: bi})
			}
		}
	}
	if len(links) == 0 {
		return -1
	}
	get := func(t store.IDTriple, pos int) dict.ID {
		switch pos {
		case 0:
			return t.S
		case 1:
			return t.P
		default:
			return t.O
		}
	}
	var joined float64
	probed := 0
	for i := 0; i < len(matches); i += stride {
		m := matches[i]
		pat := b.Pat
		conflict := false
		for _, l := range links {
			v := get(m, l.aPos)
			switch l.bPos {
			case 0:
				if pat.S != dict.None && pat.S != v {
					conflict = true
				}
				pat.S = v
			case 1:
				if pat.P != dict.None && pat.P != v {
					conflict = true
				}
				pat.P = v
			default:
				if pat.O != dict.None && pat.O != v {
					conflict = true
				}
				pat.O = v
			}
		}
		probed++
		if conflict {
			continue
		}
		joined += float64(st.Count(pat))
	}
	if probed == 0 {
		return 0
	}
	// Scale the sampled join size back to the full outer side.
	est := joined * float64(len(matches)) / float64(probed)
	return est / (float64(ca) * float64(cb))
}

// Leaf delegates to the exact single-pattern estimator.
func (e *SamplingEstimator) Leaf(dst *Set, cp *CompiledPattern) { e.base.Leaf(dst, cp) }

// Join estimates card(A⋈B) with sampled pairwise selectivities. The join
// condition between the two sides is one equality per shared *variable*
// (further pattern pairs through the same variable are transitively
// redundant — multiplying them all would badly over-correct on star
// queries), so the model greedily picks one representative sampled pair per
// uncovered shared variable, visiting variables in name order; a chosen
// pair covers every variable it binds. Variables with no sampled pair fall
// back to the independence formula. Distinct-value bookkeeping reuses the
// base model.
func (e *SamplingEstimator) Join(dst, a, b *Set) {
	joinSets(dst, a, b) // distincts, mask, and the fallback card
	shared := a.VarMask & b.VarMask
	if shared == 0 {
		return
	}
	card := a.Card * b.Card
	var covered uint64
	applied := false
	for _, v := range e.byName {
		bit := uint64(1) << v
		if shared&bit == 0 || covered&bit != 0 {
			continue
		}
		// Representative pair: the patterns that bound v most tightly on
		// each side — the tuples surviving into an intermediate result are
		// characterized by the most selective pattern's values of v, so its
		// sampled pair best approximates the conditional selectivity.
		bi, bj, bestSel := -1, -1, -1.0
		bestScore := -1.0
		for am := a.Mask; am != 0; am &= am - 1 {
			i := bits.TrailingZeros32(am)
			if !e.patternHasVar(i, bit) {
				continue
			}
			for bm := b.Mask; bm != 0; bm &= bm - 1 {
				j := bits.TrailingZeros32(bm)
				if !e.patternHasVar(j, bit) || e.pairSel[i][j] < 0 {
					continue
				}
				score := e.leafD[i][v] + e.leafD[j][v] // lower = tighter
				if bestScore < 0 || score < bestScore {
					bi, bj, bestSel, bestScore = i, j, e.pairSel[i][j], score
				}
			}
		}
		if bestSel < 0 {
			// No sampled pair: independence fallback for this variable.
			m := a.Distinct[v]
			if db := b.Distinct[v]; db > m {
				m = db
			}
			if m > 0 {
				card /= m
			}
			covered |= bit
			continue
		}
		card *= bestSel
		applied = true
		// The chosen pair covers every variable both its patterns bind.
		covered |= shared & e.varsOf[bi] & e.varsOf[bj]
	}
	if applied {
		dst.Card = card
		capDistinct(dst)
	}
}

// patternHasVar reports whether pattern i binds the variable whose bit is
// bit; indexes beyond the estimator's query bind nothing.
func (e *SamplingEstimator) patternHasVar(i int, bit uint64) bool {
	return i < len(e.varsOf) && e.varsOf[i]&bit != 0
}
