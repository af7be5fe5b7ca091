package plan

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/dict"
	"repro/internal/store"
)

// CharacteristicSets are the RDF-specific statistics of Neumann & Moerkotte
// ("Characteristic sets: Accurate cardinality estimation for RDF queries
// with multiple joins", ICDE 2011): the distinct sets of predicates
// attached to subjects, with occurrence counts. They answer subject-star
// cardinalities ("how many subjects have predicates {p1,…,pk}, and how many
// result rows does the star produce") essentially exactly, which is the
// dominant query shape in the paper's workloads (Q4 is a product star; the
// intro example is a person star).
type CharacteristicSets struct {
	sets []charset
	// predCount[p] = total triples with predicate p (for per-predicate
	// multiplicity).
	predCount map[dict.ID]int
}

// charset is one characteristic set: a sorted predicate list, the number of
// distinct subjects exhibiting exactly this set, and per-predicate triple
// totals among those subjects (for duplicate-aware star cardinality).
type charset struct {
	preds    []dict.ID
	subjects int
	// occurrences[i] = total triples with preds[i] among these subjects
	// (≥ subjects when a predicate is multi-valued).
	occurrences []int
}

// BuildCharacteristicSets scans the store (SPO order: triples grouped by
// subject) and aggregates the characteristic sets.
func BuildCharacteristicSets(st store.Source) *CharacteristicSets {
	cs := &CharacteristicSets{predCount: map[dict.ID]int{}}
	all, _ := st.Match(store.Pattern{}) // SPO order: grouped by subject
	type key string
	agg := map[key]*charset{}
	var encode func(preds []dict.ID, counts []int) key
	encode = func(preds []dict.ID, _ []int) key {
		b := make([]byte, 0, len(preds)*4)
		for _, p := range preds {
			b = append(b, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
		}
		return key(b)
	}
	flush := func(preds []dict.ID, counts []int) {
		if len(preds) == 0 {
			return
		}
		k := encode(preds, counts)
		c, ok := agg[k]
		if !ok {
			c = &charset{
				preds:       append([]dict.ID(nil), preds...),
				occurrences: make([]int, len(preds)),
			}
			agg[k] = c
		}
		c.subjects++
		for i, n := range counts {
			c.occurrences[i] += n
		}
	}
	var preds []dict.ID
	var counts []int
	var curS dict.ID
	for i, tr := range all {
		cs.predCount[tr.P]++
		if i == 0 || tr.S != curS {
			flush(preds, counts)
			preds = preds[:0]
			counts = counts[:0]
			curS = tr.S
		}
		// SPO order also groups by predicate within a subject.
		if n := len(preds); n > 0 && preds[n-1] == tr.P {
			counts[n-1]++
		} else {
			preds = append(preds, tr.P)
			counts = append(counts, 1)
		}
	}
	flush(preds, counts)
	for _, c := range agg {
		cs.sets = append(cs.sets, *c)
	}
	// Deterministic order (by first predicate, then length).
	sort.Slice(cs.sets, func(i, j int) bool {
		a, b := cs.sets[i], cs.sets[j]
		for k := 0; k < len(a.preds) && k < len(b.preds); k++ {
			if a.preds[k] != b.preds[k] {
				return a.preds[k] < b.preds[k]
			}
		}
		return len(a.preds) < len(b.preds)
	})
	return cs
}

// NumSets returns the number of distinct characteristic sets.
func (cs *CharacteristicSets) NumSets() int { return len(cs.sets) }

// StarCardinality estimates the result cardinality of a subject star over
// the given predicates (all with unbound objects): the sum over all
// characteristic sets that are supersets of the query predicates of
// subjects × ∏ per-predicate multiplicity. For stars without object
// constraints the estimate is exact.
func (cs *CharacteristicSets) StarCardinality(preds []dict.ID) float64 {
	if len(preds) == 0 {
		return 0
	}
	var buf [32]dict.ID
	q := sortedPreds(buf[:0], preds)
	total := 0.0
	for _, c := range cs.sets {
		// Superset test + collect multiplicities (c.preds is sorted).
		rows := float64(c.subjects)
		matched := 0
		j := 0
		for _, want := range q {
			for j < len(c.preds) && c.preds[j] < want {
				j++
			}
			if j >= len(c.preds) || c.preds[j] != want {
				break
			}
			rows *= float64(c.occurrences[j]) / float64(c.subjects)
			matched++
			j++
		}
		if matched == len(q) {
			total += rows
		}
	}
	return total
}

// StarSubjects returns the number of distinct subjects having at least the
// given predicates.
func (cs *CharacteristicSets) StarSubjects(preds []dict.ID) float64 {
	if len(preds) == 0 {
		return 0
	}
	var buf [32]dict.ID
	q := sortedPreds(buf[:0], preds)
	total := 0.0
	for _, c := range cs.sets {
		j := 0
		matched := 0
		for _, want := range q {
			for j < len(c.preds) && c.preds[j] < want {
				j++
			}
			if j >= len(c.preds) || c.preds[j] != want {
				break
			}
			matched++
			j++
		}
		if matched == len(q) {
			total += float64(c.subjects)
		}
	}
	return total
}

// CharsetEstimator is a Model that answers subject-star sub-plans from
// characteristic sets and delegates everything else to the base Estimator.
// It demonstrates the third estimation strategy in the ablation suite
// (independence / sampling / characteristic sets).
type CharsetEstimator struct {
	base *Estimator
	cs   *CharacteristicSets
	// starPreds[i] = predicate of pattern i when it is star-eligible:
	// subject variable, bound predicate, unbound object variable.
	starPreds []dict.ID
	// starVar[i] = the subject variable number of star-eligible pattern i.
	starVar []uint8
}

// NewCharsetEstimator builds the estimator for compiled query c.
func NewCharsetEstimator(st store.Source, cs *CharacteristicSets, c *Compiled) *CharsetEstimator {
	e := &CharsetEstimator{
		base:      NewEstimator(st),
		cs:        cs,
		starPreds: make([]dict.ID, len(c.Patterns)),
		starVar:   make([]uint8, len(c.Patterns)),
	}
	for i, cp := range c.Patterns {
		if cp.VarS != "" && cp.Pat.P != dict.None && cp.VarO != "" && cp.VarS != cp.VarO && !cp.Missing {
			e.starPreds[i] = cp.Pat.P
			e.starVar[i] = cp.num[0]
		}
	}
	return e
}

// Leaf delegates to the exact base estimator.
func (e *CharsetEstimator) Leaf(dst *Set, cp *CompiledPattern) { e.base.Leaf(dst, cp) }

// Join answers pure subject-star unions from characteristic sets and falls
// back to the independence model otherwise.
func (e *CharsetEstimator) Join(dst, a, b *Set) {
	joinSets(dst, a, b)
	// Star-eligible: every pattern on both sides is a star pattern over
	// the same subject variable.
	v := -1
	var buf [32]dict.ID // one predicate per Mask bit
	preds := buf[:0]
	for m := a.Mask | b.Mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if i >= len(e.starPreds) || e.starPreds[i] == dict.None {
			return
		}
		if v < 0 {
			v = int(e.starVar[i])
		} else if int(e.starVar[i]) != v {
			return
		}
		preds = append(preds, e.starPreds[i])
	}
	if len(preds) < 2 {
		return
	}
	dst.Card = e.cs.StarCardinality(preds)
	if dst.VarMask&(1<<v) != 0 {
		if subj := e.cs.StarSubjects(preds); subj < dst.Distinct[v] {
			dst.Distinct[v] = subj
		}
	}
	capDistinct(dst)
}

// sortedPreds returns preds sorted, in a copy appended to buf.
func sortedPreds(buf, preds []dict.ID) []dict.ID {
	q := append(buf, preds...)
	slices.Sort(q)
	return q
}
