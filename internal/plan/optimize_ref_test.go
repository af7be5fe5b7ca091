package plan_test

// The reference optimizer: the map-based DPsub and greedy optimizers, with
// their cardinality model, that the bitset kernel in optimize.go replaced.
// It is kept verbatim except for two changes: joins divide out shared
// variables in ascending variable number (first appearance in the query)
// instead of map-iteration order, which made estimates differ in their
// last bit from run to run; and each returns its winning join tree,
// whose Signature, Cost and Card are the plan's.
// TestOptimizeMatchesReference requires the kernel to choose bit-for-bit
// the same plans.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/snb"
	"repro/internal/sparql"
	"repro/internal/store"
)

// refSet is the map-based estimate of a set of joined patterns.
type refSet struct {
	Card     float64
	Distinct map[sparql.Var]float64
	Mask     uint32
}

// refNumbers numbers c's variables by first appearance in pattern order.
func refNumbers(c *plan.Compiled) map[sparql.Var]int {
	num := map[sparql.Var]int{}
	for _, cp := range c.Patterns {
		for _, v := range []sparql.Var{cp.VarS, cp.VarP, cp.VarO} {
			if _, ok := num[v]; v != "" && !ok {
				num[v] = len(num)
			}
		}
	}
	return num
}

type refEstimator struct {
	st  store.Source
	num map[sparql.Var]int
}

func (e *refEstimator) PatternCard(cp plan.CompiledPattern) float64 {
	if cp.Missing {
		return 0
	}
	return float64(e.st.Count(cp.Pat))
}

func (e *refEstimator) varDistinct(cp plan.CompiledPattern, v sparql.Var) float64 {
	if cp.Missing {
		return 0
	}
	card := float64(e.st.Count(cp.Pat))
	if card == 0 {
		return 0
	}
	// Position of v within the pattern.
	var pos int
	switch v {
	case cp.VarS:
		pos = 0
	case cp.VarP:
		pos = 1
	case cp.VarO:
		pos = 2
	default:
		return card
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

func (e *refEstimator) Leaf(cp plan.CompiledPattern) refSet {
	s := refSet{Card: e.PatternCard(cp), Distinct: map[sparql.Var]float64{}}
	if cp.Index >= 0 && cp.Index < 32 {
		s.Mask = 1 << cp.Index
	}
	for _, v := range cp.Vars() {
		s.Distinct[v] = e.varDistinct(cp, v)
	}
	return s
}

func (e *refEstimator) Join(a, b refSet) refSet { return refJoinSets(a, b, e.num) }

// refJoinSets estimates the join of a and b. For each shared variable v —
// in ascending variable number — the classical formula divides by
// max(d_a(v), d_b(v)); disjoint var sets give a cross product.
func refJoinSets(a, b refSet, num map[sparql.Var]int) refSet {
	card := a.Card * b.Card
	avars := map[sparql.Var]bool{}
	for v := range a.Distinct {
		avars[v] = true
	}
	bvars := map[sparql.Var]bool{}
	for v := range b.Distinct {
		bvars[v] = true
	}
	shared := refSharedVars(avars, bvars)
	sort.Slice(shared, func(i, j int) bool { return num[shared[i]] < num[shared[j]] })
	for _, v := range shared {
		da, db := a.Distinct[v], b.Distinct[v]
		m := da
		if db > m {
			m = db
		}
		if m > 0 {
			card /= m
		}
	}
	out := refSet{
		Card:     card,
		Distinct: make(map[sparql.Var]float64, len(a.Distinct)+len(b.Distinct)),
		Mask:     a.Mask | b.Mask,
	}
	for v, d := range a.Distinct {
		out.Distinct[v] = d
	}
	for v, d := range b.Distinct {
		if prev, ok := out.Distinct[v]; !ok || d < prev {
			out.Distinct[v] = d
		}
	}
	// No variable can exceed the output cardinality.
	for v, d := range out.Distinct {
		if d > out.Card {
			out.Distinct[v] = out.Card
		}
	}
	return out
}

// refSharedVars returns the variables common to both var sets.
func refSharedVars(a, b map[sparql.Var]bool) []sparql.Var {
	var out []sparql.Var
	for v := range a {
		if b[v] {
			out = append(out, v)
		}
	}
	return out
}

type refEntry struct {
	node *plan.Node
	est  refSet
}

// refDP is the map-based DPsub enumerator.
func refDP(c *plan.Compiled, est *refEstimator) (*plan.Node, error) {
	n := len(c.Patterns)
	if n == 0 {
		return nil, fmt.Errorf("plan: no patterns")
	}
	if n > 30 {
		return nil, fmt.Errorf("plan: too many patterns for DP (%d)", n)
	}
	full := uint32(1<<n) - 1
	table := make([]*refEntry, 1<<n)
	// Leaves.
	for i := 0; i < n; i++ {
		cp := &c.Patterns[i]
		s := est.Leaf(*cp)
		table[1<<i] = &refEntry{
			node: &plan.Node{Leaf: cp, Card: s.Card, Cost: 0},
			est:  s,
		}
	}
	// Variable sets per mask for connectivity checks.
	varsOf := make([]map[sparql.Var]bool, 1<<n)
	for i := 0; i < n; i++ {
		vs := map[sparql.Var]bool{}
		for _, v := range c.Patterns[i].Vars() {
			vs[v] = true
		}
		varsOf[1<<i] = vs
	}
	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < 2 {
			continue
		}
		// Union variable set.
		vs := map[sparql.Var]bool{}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				for v := range varsOf[1<<i] {
					vs[v] = true
				}
			}
		}
		varsOf[mask] = vs
		best := refChooseBestSplit(est, mask, table, varsOf, true)
		if best == nil {
			// Disconnected subset: allow cross products.
			best = refChooseBestSplit(est, mask, table, varsOf, false)
		}
		table[mask] = best
	}
	root := table[full]
	if root == nil {
		return nil, fmt.Errorf("plan: DP failed to cover all patterns")
	}
	return root.node, nil
}

func refChooseBestSplit(est *refEstimator, mask uint32, table []*refEntry, varsOf []map[sparql.Var]bool, requireShared bool) *refEntry {
	var best *refEntry
	// Enumerate submasks; consider each unordered split once (sub < rest).
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		rest := mask &^ sub
		if sub > rest {
			continue
		}
		l, r := table[sub], table[rest]
		if l == nil || r == nil {
			continue
		}
		if requireShared && len(refSharedVars(varsOf[sub], varsOf[rest])) == 0 {
			continue
		}
		joined := est.Join(l.est, r.est)
		cost := joined.Card + l.node.Cost + r.node.Cost
		if best == nil || cost < best.node.Cost ||
			(cost == best.node.Cost && refTieBreak(l.node, r.node, best)) {
			best = &refEntry{
				node: &plan.Node{
					Left:  l.node,
					Right: r.node,
					Card:  joined.Card,
					Cost:  cost,
				},
				est: joined,
			}
		}
	}
	return best
}

func refTieBreak(l, r *plan.Node, best *refEntry) bool {
	cand := (&plan.Node{Left: l, Right: r}).Signature()
	return cand < best.node.Signature()
}

// refGreedy is the map-based greedy optimizer.
func refGreedy(c *plan.Compiled, est *refEstimator) (*plan.Node, error) {
	n := len(c.Patterns)
	if n == 0 {
		return nil, fmt.Errorf("plan: no patterns")
	}
	type item struct {
		node *plan.Node
		est  refSet
		vars map[sparql.Var]bool
	}
	remaining := make([]*item, 0, n)
	for i := range c.Patterns {
		cp := &c.Patterns[i]
		s := est.Leaf(*cp)
		vs := map[sparql.Var]bool{}
		for _, v := range cp.Vars() {
			vs[v] = true
		}
		remaining = append(remaining, &item{
			node: &plan.Node{Leaf: cp, Card: s.Card},
			est:  s,
			vars: vs,
		})
	}
	// Seed: smallest cardinality (ties: smallest pattern index).
	seedIdx := 0
	for i, it := range remaining {
		if it.est.Card < remaining[seedIdx].est.Card {
			seedIdx = i
		}
	}
	cur := remaining[seedIdx]
	remaining = append(remaining[:seedIdx], remaining[seedIdx+1:]...)
	for len(remaining) > 0 {
		bestIdx := -1
		bestCard := math.Inf(1)
		bestConnected := false
		for i, it := range remaining {
			connected := len(refSharedVars(cur.vars, it.vars)) > 0
			if bestConnected && !connected {
				continue
			}
			j := est.Join(cur.est, it.est)
			if (connected && !bestConnected) || j.Card < bestCard {
				bestIdx, bestCard, bestConnected = i, j.Card, connected
			}
		}
		next := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		joined := est.Join(cur.est, next.est)
		node := &plan.Node{
			Left:  cur.node,
			Right: next.node,
			Card:  joined.Card,
			Cost:  joined.Card + cur.node.Cost + next.node.Cost,
		}
		vars := map[sparql.Var]bool{}
		for v := range cur.vars {
			vars[v] = true
		}
		for v := range next.vars {
			vars[v] = true
		}
		cur = &item{node: node, est: joined, vars: vars}
	}
	return cur.node, nil
}

// refOptimize runs the reference on one basic graph pattern the way
// Optimize does: DP up to MaxDPPatterns, greedy beyond.
func refOptimize(c *plan.Compiled, est *refEstimator) (*plan.Node, error) {
	if len(c.Patterns) > plan.MaxDPPatterns {
		return refGreedy(c, est)
	}
	return refDP(c, est)
}

// bgpLeaves returns the BGP leaves of an optimized algebra tree, in tree
// order.
func bgpLeaves(a *plan.AlgNode) []*plan.AlgNode {
	switch a.Kind {
	case plan.AlgJoin, plan.AlgLeftJoin:
		return append(bgpLeaves(a.Left), bgpLeaves(a.Right)...)
	case plan.AlgUnion:
		var out []*plan.AlgNode
		for _, br := range a.Branches {
			out = append(out, bgpLeaves(br)...)
		}
		return out
	}
	return []*plan.AlgNode{a}
}

// refTemplate is one template of the reference corpus over its store.
type refTemplate struct {
	name string
	tmpl *sparql.Query
	st   *store.Store
}

// refCorpus builds every BSBM and SNB template over stores whose
// parameter domains all exceed 200 bindings: BSBM's test configuration
// with a deeper, wider type hierarchy (341 product types), and SNB's.
func refCorpus(t testing.TB) []refTemplate {
	t.Helper()
	cfg := bsbm.TestConfig()
	cfg.TypeDepth, cfg.TypeBranching = 4, 4
	bst, _, err := bsbm.BuildStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sst, _, err := snb.BuildStore(snb.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return []refTemplate{
		{"bsbm/Q1", bsbm.Q1(), bst},
		{"bsbm/Q2", bsbm.Q2(), bst},
		{"bsbm/Q3", bsbm.Q3(), bst},
		{"bsbm/Q4", bsbm.Q4(), bst},
		{"bsbm/Q5", bsbm.Q5(), bst},
		{"bsbm/Q6", bsbm.Q6(), bst},
		{"snb/Q1", snb.Q1(), sst},
		{"snb/Q2", snb.Q2(), sst},
		{"snb/Q3", snb.Q3(), sst},
		{"snb/Q4", snb.Q4(), sst},
	}
}

// refBindingsPerTemplate is how many domain bindings each template is
// checked on.
const refBindingsPerTemplate = 200

// TestOptimizeMatchesReference requires the bitset kernel to choose the
// reference's plans bit for bit — Signature, EstCost and EstCard of every
// basic graph pattern's join tree — for every template on 200 bindings
// drawn from its domain, under Optimize and under the greedy fallback
// forced on every leaf.
func TestOptimizeMatchesReference(t *testing.T) {
	for _, rt := range refCorpus(t) {
		t.Run(rt.name, func(t *testing.T) {
			dom, err := core.ExtractDomain(rt.tmpl, rt.st)
			if err != nil {
				t.Fatal(err)
			}
			if dom.Size() < refBindingsPerTemplate {
				t.Fatalf("domain has %d bindings, want ≥ %d", dom.Size(), refBindingsPerTemplate)
			}
			rng := rand.New(rand.NewSource(1))
			for _, i := range rng.Perm(dom.Size())[:refBindingsPerTemplate] {
				b := dom.At(i)
				bound, err := rt.tmpl.Bind(b)
				if err != nil {
					t.Fatal(err)
				}
				c, err := plan.Compile(bound, rt.st)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, c, rt, b)
			}
		})
	}
}

// checkAgainstReference optimizes c and compares each BGP's join tree, and
// the greedy fallback's tree for the same BGP, with the reference's.
func checkAgainstReference(t *testing.T, c *plan.Compiled, rt refTemplate, b sparql.Binding) {
	t.Helper()
	num := refNumbers(c)
	if len(c.Vars) != len(num) {
		t.Fatalf("Compiled.Vars = %v, want %d variables", c.Vars, len(num))
	}
	for v, i := range num {
		if c.Vars[i] != v {
			t.Fatalf("Compiled.Vars = %v, want ?%s numbered %d", c.Vars, v, i)
		}
	}
	ref := &refEstimator{st: rt.st, num: num}
	est := plan.NewEstimator(rt.st)
	p, err := plan.Optimize(c, est)
	if err != nil {
		t.Fatal(err)
	}
	leaves := bgpLeaves(p.Alg)
	for k, leaf := range leaves {
		if leaf.Signature() != leaf.Root.Signature() {
			t.Fatalf("binding %v, BGP %d: kept signature %s, root renders %s", b, k, leaf.Signature(), leaf.Root.Signature())
		}
		sub := &plan.Compiled{Query: c.Query, Patterns: leaf.Compiled}
		greedy, sig := plan.GreedyJoinTree(leaf.Compiled, est)
		if sig != greedy.Signature() {
			t.Fatalf("binding %v, BGP %d: greedy signature %s, root renders %s", b, k, sig, greedy.Signature())
		}
		for _, cmp := range []struct {
			name      string
			got       *plan.Node
			optimizer func(*plan.Compiled, *refEstimator) (*plan.Node, error)
		}{{"Optimize", leaf.Root, refOptimize}, {"greedy", greedy, refGreedy}} {
			want, err := cmp.optimizer(sub, ref)
			if err != nil {
				t.Fatal(err)
			}
			got := cmp.got
			if got.Signature() != want.Signature() ||
				math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
				math.Float64bits(got.Card) != math.Float64bits(want.Card) {
				t.Fatalf("%s binding %v, BGP %d:\n got  %s cost=%v card=%v\n want %s cost=%v card=%v",
					cmp.name, b, k, got.Signature(), got.Cost, got.Card, want.Signature(), want.Cost, want.Card)
			}
		}
	}
	if len(leaves) == 1 && p.Signature != leaves[0].Root.Signature() {
		t.Fatalf("Plan.Signature %s, root renders %s", p.Signature, leaves[0].Root.Signature())
	}
}
