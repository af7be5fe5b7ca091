package plan

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// MaxDPPatterns is the largest BGP leaf optimized with exact dynamic
// programming; larger leaves fall back to the greedy algorithm. Subset DP
// enumerates 3^n splits, so 13 (≈1.6M splits) is a comfortable bound.
const MaxDPPatterns = 13

// Optimize returns the Cout-optimal plan for c, lowered to the physical
// operator tree the executor runs. Every BGP leaf of the algebra tree gets
// its join tree from exact dynamic programming over connected subproblems
// when it has at most MaxDPPatterns patterns, and from the greedy
// heuristic otherwise; the tree above the leaves is fixed by the query
// text. A flat query is one BGP leaf. A query naming a variable its
// patterns do not bind (in SELECT, ORDER BY, FILTER, GROUP BY or an
// aggregate), or two aggregates with one output, is an error here, so
// every plan Optimize returns can be executed.
func Optimize(c *Compiled, est *Estimator) (*Plan, error) {
	if c.Alg == nil {
		return nil, fmt.Errorf("plan: query has no algebra tree")
	}
	p := &Plan{Method: "dp"}
	if optimizeAlg(c.Alg, &p.root, est) {
		p.Method = "greedy"
	}
	p.Alg = &p.root
	p.EstCost, p.EstCard, p.Signature = p.root.Cost, p.root.Card, p.root.Signature()
	var err error
	if p.Phys, err = lowerPlan(p.Alg, c.Query); err != nil {
		return nil, err
	}
	return p, nil
}

// dpEntry is the cheapest plan found for one subset of patterns: its
// estimate, its Cout, and the left side of its winning split (0 for a
// single pattern).
type dpEntry struct {
	set   Set
	cost  float64
	split uint32
}

// dpTable is the state of one DPsub run, indexed by subset: bit i of a
// subset stands for pats[i].
type dpTable struct {
	est     *Estimator
	pats    []CompiledPattern
	ent     []dpEntry
	sig     []string // Signature per finished subset, built on first use
	scratch Set      // estimate of the split under test

	candBuf, bestBuf [128]byte // tie-break scratch; longer signatures spill to the heap
}

// optimizeDP is a DPsub enumerator over one basic graph pattern: for
// every subset of pats, in increasing bitmask order, it keeps the cheapest
// split, preferring splits whose sides share a variable and falling back
// to cross products only when a subset is disconnected. All state lives in
// flat per-subset tables allocated once; the *Node tree is built only for
// the winner. It returns the winner and its Signature.
func optimizeDP(pats []CompiledPattern, est *Estimator) (*Node, string) {
	n := len(pats)
	nv := numVars(pats)
	size := 1 << n
	rows := make([]float64, (size+1)*nv) // a Distinct row per subset, plus scratch
	t := &dpTable{est: est, pats: pats, ent: make([]dpEntry, size), sig: make([]string, size)}
	for m := range t.ent {
		t.ent[m].set.Distinct = rows[m*nv : (m+1)*nv : (m+1)*nv]
	}
	t.scratch.Distinct = rows[size*nv:]
	for i := 0; i < n; i++ {
		est.Leaf(&t.ent[1<<i].set, &pats[i])
	}
	for mask := uint32(3); mask < uint32(size); mask++ {
		if mask&(mask-1) == 0 {
			continue // a single pattern
		}
		if !t.chooseBestSplit(mask, true) {
			// Disconnected subset: allow cross products.
			t.chooseBestSplit(mask, false)
		}
	}
	full := uint32(size - 1)
	nodes := make([]Node, 0, 2*n-1)
	return t.node(full, &nodes), t.signature(full)
}

// chooseBestSplit scans every unordered split of mask into two non-empty
// sides and records the cheapest in t.ent[mask]; when connected is true,
// only splits whose sides share a variable qualify. It reports whether any
// split qualified.
func (t *dpTable) chooseBestSplit(mask uint32, connected bool) bool {
	best := &t.ent[mask]
	found := false
	// The side without mask's highest pattern is the smaller submask, so
	// each unordered split is visited once, in decreasing submask order.
	low := mask &^ (1 << (31 - bits.LeadingZeros32(mask)))
	for sub := low; sub > 0; sub = (sub - 1) & low {
		rest := mask &^ sub
		l, r := &t.ent[sub], &t.ent[rest]
		if connected && l.set.VarMask&r.set.VarMask == 0 {
			continue
		}
		t.est.Join(&t.scratch, &l.set, &r.set)
		cost := t.scratch.Card + l.cost + r.cost
		if found && !(cost < best.cost || cost == best.cost && t.sigLess(sub, rest, best.split, mask&^best.split)) {
			continue
		}
		found = true
		best.set, t.scratch = t.scratch, best.set
		best.cost, best.split = cost, sub
	}
	return found
}

// sigLess makes DP deterministic when two splits have identical cost: the
// split whose join has the lexicographically smaller signature wins. Both
// signatures are rendered from the children's cached ones into scratch
// buffers.
func (t *dpTable) sigLess(sub, rest, bestSub, bestRest uint32) bool {
	cand := t.appendJoinSig(t.candBuf[:0], sub, rest)
	best := t.appendJoinSig(t.bestBuf[:0], bestSub, bestRest)
	return bytes.Compare(cand, best) < 0
}

// appendJoinSig appends the Signature of the join of the finished plans
// for l and r to buf.
func (t *dpTable) appendJoinSig(buf []byte, l, r uint32) []byte {
	a, b := t.signature(l), t.signature(r)
	if a > b {
		a, b = b, a
	}
	buf = append(append(append(buf, '('), a...), '*')
	return append(append(buf, b...), ')')
}

// signature returns the Signature of the finished plan for mask, the same
// string Node.Signature renders for it.
func (t *dpTable) signature(mask uint32) string {
	if s := t.sig[mask]; s != "" {
		return s
	}
	var s string
	if split := t.ent[mask].split; split == 0 {
		s = "p" + strconv.Itoa(t.pats[bits.TrailingZeros32(mask)].Index)
	} else {
		l, r := t.signature(split), t.signature(mask&^split)
		if l > r {
			l, r = r, l
		}
		s = "(" + l + "*" + r + ")"
	}
	t.sig[mask] = s
	return s
}

// node materializes the finished plan for mask into nodes, whose capacity
// must hold the whole tree, and returns its root.
func (t *dpTable) node(mask uint32, nodes *[]Node) *Node {
	e := &t.ent[mask]
	*nodes = append(*nodes, Node{Card: e.set.Card, Cost: e.cost})
	n := &(*nodes)[len(*nodes)-1]
	if e.split == 0 {
		n.Leaf = &t.pats[bits.TrailingZeros32(mask)]
	} else {
		n.Left = t.node(e.split, nodes)
		n.Right = t.node(mask&^e.split, nodes)
	}
	return n
}

// optimizeGreedy builds a join tree over one basic graph pattern greedily:
// start from the smallest-cardinality pattern, then repeatedly join the
// relation that minimizes the resulting intermediate size, preferring
// connected joins. It is the fallback for leaves beyond MaxDPPatterns, and
// returns the tree and its Signature.
func optimizeGreedy(pats []CompiledPattern, est *Estimator) (*Node, string) {
	n := len(pats)
	type item struct {
		node *Node
		set  Set
	}
	nv := numVars(pats)
	rows := make([]float64, (n+1)*nv) // a Distinct row per pattern, plus scratch
	remaining := make([]item, n)
	for i := range pats {
		it := &remaining[i]
		it.set.Distinct = rows[i*nv : (i+1)*nv : (i+1)*nv]
		est.Leaf(&it.set, &pats[i])
		it.node = &Node{Leaf: &pats[i], Card: it.set.Card}
	}
	scratch := Set{Distinct: rows[n*nv:]}
	// Seed: smallest cardinality (ties: smallest pattern index).
	seedIdx := 0
	for i, it := range remaining {
		if it.set.Card < remaining[seedIdx].set.Card {
			seedIdx = i
		}
	}
	cur := remaining[seedIdx]
	remaining = append(remaining[:seedIdx], remaining[seedIdx+1:]...)
	for len(remaining) > 0 {
		bestIdx := -1
		bestCard := math.Inf(1)
		bestConnected := false
		for i := range remaining {
			connected := cur.set.VarMask&remaining[i].set.VarMask != 0
			if bestConnected && !connected {
				continue
			}
			est.Join(&scratch, &cur.set, &remaining[i].set)
			if (connected && !bestConnected) || scratch.Card < bestCard {
				bestIdx, bestCard, bestConnected = i, scratch.Card, connected
			}
		}
		next := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		est.Join(&scratch, &cur.set, &next.set)
		node := &Node{
			Left:  cur.node,
			Right: next.node,
			Card:  scratch.Card,
			Cost:  scratch.Card + cur.node.Cost + next.node.Cost,
		}
		// The joined estimate becomes cur; cur's old row is free.
		cur.set, scratch = scratch, cur.set
		cur.node = node
	}
	return cur.node, cur.node.Signature()
}
