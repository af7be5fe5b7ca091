package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sparql"
)

// This file implements the physical-plan layer: lowering of an optimized
// plan (an algebra tree with a join tree of Nodes at each BGP leaf) into a
// tree of physical operators that the executor runs directly. Optimize
// lowers every plan it returns (Plan.Phys). The lowering fixes every
// execution decision — operator selection (index scan, index-nested-loop
// probe, hash or cross join), output schemas, build-side choices for
// leaf-leaf joins, and the placement of FILTER, ORDER BY, projection,
// DISTINCT and LIMIT — so a plan's rows, row order and accounting depend
// on the plan alone, and it makes every check, so the executor makes none.

// PhysOp identifies a physical operator kind.
type PhysOp uint8

// Physical operator kinds.
const (
	// PhysIndexScan streams one triple pattern out of the store index.
	PhysIndexScan PhysOp = iota
	// PhysIndexProbe is an index nested-loop join: per row of Left, the
	// shared variables are bound into Leaf and the store is probed.
	PhysIndexProbe
	// PhysHashJoin joins Left and Right by hashing the smaller input.
	PhysHashJoin
	// PhysCross is a cross product (no shared variables).
	PhysCross
	// PhysFilter applies FILTER comparisons to Left's output.
	PhysFilter
	// PhysOrder sorts Left's output by the ORDER BY keys (blocking).
	PhysOrder
	// PhysProject projects Left's output onto the SELECT columns.
	PhysProject
	// PhysDistinct removes duplicate rows, keeping first occurrences.
	PhysDistinct
	// PhysLimit truncates the output to Limit rows.
	PhysLimit
	// PhysLeftJoin is a left outer hash join (OPTIONAL): a hash table is
	// built on Right, Left rows stream through in order, matched rows emit
	// every combination (build insertion order) and unmatched rows emit
	// once with Right-only columns unbound (dict.None).
	PhysLeftJoin
	// PhysUnion concatenates its Kids in order, padding columns a branch
	// does not bind with the unbound sentinel.
	PhysUnion
	// PhysAggregate groups Left's rows by the GroupBy columns (groups in
	// first-occurrence order) and evaluates the Aggs over each group. With
	// no GroupBy columns it emits exactly one global group, even over
	// empty input.
	PhysAggregate
)

// String names the operator for plan rendering.
func (op PhysOp) String() string {
	switch op {
	case PhysIndexScan:
		return "IndexScan"
	case PhysIndexProbe:
		return "IndexNestedLoopProbe"
	case PhysHashJoin:
		return "HashJoin"
	case PhysCross:
		return "CrossProduct"
	case PhysFilter:
		return "Filter"
	case PhysOrder:
		return "Order"
	case PhysProject:
		return "Project"
	case PhysDistinct:
		return "Distinct"
	case PhysLimit:
		return "Limit"
	case PhysLeftJoin:
		return "HashLeftJoin"
	case PhysUnion:
		return "Union"
	case PhysAggregate:
		return "HashAggregate"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// PhysNode is one node of a physical operator tree.
type PhysNode struct {
	Op          PhysOp
	Leaf        *CompiledPattern   // PhysIndexScan, PhysIndexProbe (the probed pattern)
	Left, Right *PhysNode          // children; unary operators use Left only
	Vars        []sparql.Var       // output schema
	Filters     []sparql.Filter    // PhysFilter
	Keys        []sparql.OrderKey  // PhysOrder
	Limit       int                // PhysLimit: max rows to emit; -1 means unlimited (offset only)
	Offset      int                // PhysLimit: rows to skip before emitting
	Card        float64            // estimated output cardinality (join/scan nodes)
	Kids        []*PhysNode        // PhysUnion: branches, in syntactic order
	GroupBy     []sparql.Var       // PhysAggregate: grouping keys (may be empty)
	Aggs        []sparql.Aggregate // PhysAggregate: aggregates, in SELECT order
}

// String renders the operator tree rooted at n, one operator a line, for
// debugging and EXPLAIN output.
func (n *PhysNode) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *PhysNode) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	b.WriteString(indent)
	n.describe(b)
	b.WriteString("\n")
	if n.Left != nil {
		n.Left.render(b, depth+1)
	}
	if n.Right != nil {
		n.Right.render(b, depth+1)
	}
	for _, k := range n.Kids {
		k.render(b, depth+1)
	}
}

// Describe returns the node's one-line EXPLAIN text (operator name,
// operator-specific details, output schema) without children — the label
// the execution tracer attaches to the node's span.
func (n *PhysNode) Describe() string {
	var b strings.Builder
	n.describe(&b)
	return b.String()
}

func (n *PhysNode) describe(b *strings.Builder) {
	fmt.Fprintf(b, "%s", n.Op)
	switch n.Op {
	case PhysIndexScan, PhysIndexProbe:
		fmt.Fprintf(b, " p%d %v", n.Leaf.Index, n.Leaf.Pat)
	case PhysFilter:
		for _, f := range n.Filters {
			fmt.Fprintf(b, " %s", f)
		}
	case PhysLimit:
		if n.Limit >= 0 {
			fmt.Fprintf(b, " %d", n.Limit)
		}
		if n.Offset > 0 {
			fmt.Fprintf(b, " offset %d", n.Offset)
		}
	case PhysUnion:
		fmt.Fprintf(b, " %d branches", len(n.Kids))
	case PhysAggregate:
		if len(n.GroupBy) > 0 {
			b.WriteString(" by(")
			for i, v := range n.GroupBy {
				if i > 0 {
					b.WriteString(" ")
				}
				fmt.Fprintf(b, "?%s", v)
			}
			b.WriteString(")")
		} else {
			b.WriteString(" global")
		}
		for _, a := range n.Aggs {
			fmt.Fprintf(b, " %s", a)
		}
	}
	fmt.Fprintf(b, " -> %v", n.Vars)
}

// lowerPlan translates the optimized algebra tree a of query q into a
// physical operator tree; Optimize calls it once per plan. Within a BGP
// leaf's join tree, operator selection follows fixed rules:
//
//   - a leaf is an IndexScan;
//   - a join with exactly one composite child probes the leaf child per
//     composite row (index nested loops), provided they share a variable
//     and the leaf's constants all exist in the dictionary;
//   - a leaf-leaf join scans the smaller side (by estimated cardinality,
//     ties to the left child) and probes the other;
//   - remaining joins are hash joins when the children share a variable
//     and cross products otherwise.
//
// Above the leaves, Join lowers like a remaining join, LeftJoin to a hash
// left join and Union to a union; every algebra node's group filters
// follow it as a Filter. The epilogue appends aggregation, HAVING, Order,
// Project, Distinct and Limit, in that order. Every node's output schema
// is fixed here, and every check the executor relies on is made here: a
// filter, GROUP BY key, aggregate argument, ORDER BY key or SELECT column
// naming a variable absent from the covering schema is an error, and so is
// a duplicate aggregate output.
func lowerPlan(a *AlgNode, q *sparql.Query) (*PhysNode, error) {
	lw := lowering{slab: make([]PhysNode, 0, physBound(a)+epilogueOps)}
	root, err := lw.alg(a)
	if err != nil {
		return nil, err
	}
	return lw.epilogue(root, q)
}

// epilogueOps is the most operators the epilogue appends: Aggregate, its
// HAVING Filter, Order, Project, Distinct and Limit.
const epilogueOps = 6

// physBound bounds the number of operators a's lowering makes: at most
// one per join-tree node (2k-1 over k patterns) and per composition node,
// plus a Filter per node that carries filters.
func physBound(a *AlgNode) int {
	n := 0
	if len(a.Filters) > 0 {
		n++
	}
	switch a.Kind {
	case AlgBGP:
		n += 2*len(a.Compiled) - 1
	case AlgJoin, AlgLeftJoin:
		n += 1 + physBound(a.Left) + physBound(a.Right)
	case AlgUnion:
		n++
		for _, br := range a.Branches {
			n += physBound(br)
		}
	}
	return n
}

// lowering builds one operator tree, taking its nodes from one slab.
type lowering struct {
	slab []PhysNode
}

// node returns a copy of n in the slab, or on the heap once the slab is
// full.
func (lw *lowering) node(n PhysNode) *PhysNode {
	if len(lw.slab) == cap(lw.slab) {
		p := new(PhysNode)
		*p = n
		return p
	}
	lw.slab = append(lw.slab, n)
	return &lw.slab[len(lw.slab)-1]
}

// alg lowers one algebra node, its subtree, and its attached filters.
func (lw *lowering) alg(a *AlgNode) (*PhysNode, error) {
	var root *PhysNode
	switch a.Kind {
	case AlgBGP:
		root = lw.joinTree(a.Root)
	case AlgJoin, AlgLeftJoin:
		lp, err := lw.alg(a.Left)
		if err != nil {
			return nil, err
		}
		rp, err := lw.alg(a.Right)
		if err != nil {
			return nil, err
		}
		if a.Kind == AlgJoin {
			root = lw.join(lp, rp, a.Card)
		} else {
			root = lw.node(PhysNode{Op: PhysLeftJoin, Left: lp, Right: rp, Vars: joinSchema(lp.Vars, rp.Vars), Card: a.Card})
		}
	case AlgUnion:
		un := PhysNode{Op: PhysUnion, Card: a.Card, Kids: make([]*PhysNode, len(a.Branches))}
		for i, br := range a.Branches {
			kid, err := lw.alg(br)
			if err != nil {
				return nil, err
			}
			un.Kids[i] = kid
			un.Vars = joinSchema(un.Vars, kid.Vars)
		}
		root = lw.node(un)
	default:
		panic(fmt.Sprintf("plan: unknown algebra node %v", a.Kind))
	}
	return lw.filter(root, a.Filters)
}

// epilogue appends aggregation (grouping + aggregates), HAVING, ORDER BY,
// projection, DISTINCT and LIMIT, in that order. Group-scoped filters, the
// root group's included, were already applied by alg, so q.Filters is not
// reapplied here.
func (lw *lowering) epilogue(root *PhysNode, q *sparql.Query) (*PhysNode, error) {
	var err error
	if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		for _, v := range q.GroupBy {
			if !slices.Contains(root.Vars, v) {
				return nil, fmt.Errorf("plan: GROUP BY unbound variable ?%s", v)
			}
		}
		vars := append(make([]sparql.Var, 0, len(q.GroupBy)+len(q.Aggs)), q.GroupBy...)
		for _, ag := range q.Aggs {
			if ag.Var != "" && !slices.Contains(root.Vars, ag.Var) {
				return nil, fmt.Errorf("plan: aggregate over unbound variable ?%s", ag.Var)
			}
			if slices.Contains(vars, ag.As) {
				return nil, fmt.Errorf("plan: duplicate aggregate output ?%s", ag.As)
			}
			vars = append(vars, ag.As)
		}
		root = lw.node(PhysNode{Op: PhysAggregate, Left: root, Vars: vars, GroupBy: q.GroupBy, Aggs: q.Aggs, Card: root.Card})
		if root, err = lw.filter(root, q.Having); err != nil {
			return nil, err
		}
	}
	if len(q.OrderBy) > 0 {
		for _, k := range q.OrderBy {
			if !slices.Contains(root.Vars, k.Var) {
				return nil, fmt.Errorf("plan: ORDER BY unbound variable ?%s", k.Var)
			}
		}
		root = lw.node(PhysNode{Op: PhysOrder, Left: root, Vars: root.Vars, Keys: q.OrderBy, Card: root.Card})
	}
	if len(q.Select) > 0 {
		for _, v := range q.Select {
			if !slices.Contains(root.Vars, v) {
				return nil, fmt.Errorf("plan: SELECT of unbound variable ?%s", v)
			}
		}
		root = lw.node(PhysNode{Op: PhysProject, Left: root, Vars: q.Select, Card: root.Card})
	}
	if q.Distinct {
		root = lw.node(PhysNode{Op: PhysDistinct, Left: root, Vars: root.Vars, Card: root.Card})
	}
	if limit, has := q.LimitCount(); has || q.Offset > 0 {
		if !has {
			limit = -1 // offset without limit: skip rows, emit the rest
		}
		root = lw.node(PhysNode{Op: PhysLimit, Left: root, Vars: root.Vars, Limit: limit, Offset: q.Offset, Card: root.Card})
	}
	return root, nil
}

// joinTree lowers one BGP leaf's optimized join tree.
func (lw *lowering) joinTree(n *Node) *PhysNode {
	if n.IsLeaf() {
		return lw.scan(n)
	}
	left, right := n.Left, n.Right
	switch {
	case right.IsLeaf() && !left.IsLeaf():
		return lw.probe(lw.joinTree(left), right, n.Card)
	case left.IsLeaf() && !right.IsLeaf():
		return lw.probe(lw.joinTree(right), left, n.Card)
	case left.IsLeaf() && right.IsLeaf():
		// Scan the smaller (by estimated cardinality), probe the other.
		if left.Card <= right.Card {
			return lw.probe(lw.scan(left), right, n.Card)
		}
		return lw.probe(lw.scan(right), left, n.Card)
	default:
		return lw.join(lw.joinTree(left), lw.joinTree(right), n.Card)
	}
}

func (lw *lowering) scan(n *Node) *PhysNode {
	return lw.node(PhysNode{Op: PhysIndexScan, Leaf: n.Leaf, Vars: n.Leaf.Vars(), Card: n.Card})
}

// probe lowers a join whose one child is a bare leaf. When the leaf shares
// a variable with the outer schema (and its constants resolve), the join is
// an index-nested-loop probe; otherwise it degrades to a regular join of
// the outer with a full scan of the leaf.
func (lw *lowering) probe(outer *PhysNode, leafNode *Node, card float64) *PhysNode {
	cp := leafNode.Leaf
	shared := slices.ContainsFunc(outer.Vars, func(v sparql.Var) bool { return v == cp.VarS || v == cp.VarP || v == cp.VarO })
	if !shared || cp.Missing {
		return lw.join(outer, lw.scan(leafNode), card)
	}
	return lw.node(PhysNode{Op: PhysIndexProbe, Leaf: cp, Left: outer, Vars: probeSchema(outer.Vars, cp), Card: card})
}

// join builds the physical join of two composite inputs: a cross product
// when they share no variable, a hash join otherwise.
func (lw *lowering) join(left, right *PhysNode, card float64) *PhysNode {
	op := PhysCross
	if slices.ContainsFunc(right.Vars, func(v sparql.Var) bool { return slices.Contains(left.Vars, v) }) {
		op = PhysHashJoin
	}
	return lw.node(PhysNode{Op: op, Left: left, Right: right, Vars: joinSchema(left.Vars, right.Vars), Card: card})
}

// filter wraps root in a PhysFilter evaluating filters, whose variables
// must all be in root's schema; no filters leave root as it is.
func (lw *lowering) filter(root *PhysNode, filters []sparql.Filter) (*PhysNode, error) {
	if len(filters) == 0 {
		return root, nil
	}
	for _, f := range filters {
		for _, n := range [2]sparql.Node{f.Left, f.Right} {
			switch n.Kind {
			case sparql.NodeVar:
				if !slices.Contains(root.Vars, n.Var) {
					return nil, fmt.Errorf("plan: filter references unbound variable ?%s", n.Var)
				}
			case sparql.NodeParam:
				return nil, fmt.Errorf("plan: filter contains unbound parameter %%%s", n.Param)
			}
		}
	}
	return lw.node(PhysNode{Op: PhysFilter, Left: root, Vars: root.Vars, Filters: filters, Card: root.Card}), nil
}

// probeSchema is the output schema of an index probe: the outer columns
// followed by the leaf's variables not bound by the outer side, in S,P,O
// first-occurrence order.
func probeSchema(outer []sparql.Var, cp *CompiledPattern) []sparql.Var {
	out := append(make([]sparql.Var, 0, len(outer)+3), outer...)
	for _, v := range [3]sparql.Var{cp.VarS, cp.VarP, cp.VarO} {
		if v != "" && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// joinSchema is the output schema of a binary join: all left columns, then
// right columns not already present.
func joinSchema(left, right []sparql.Var) []sparql.Var {
	out := append(make([]sparql.Var, 0, len(left)+len(right)), left...)
	for _, v := range right {
		if !slices.Contains(left, v) {
			out = append(out, v)
		}
	}
	return out
}
