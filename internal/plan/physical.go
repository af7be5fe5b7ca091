package plan

import (
	"fmt"
	"strings"

	"repro/internal/sparql"
)

// This file implements the physical-plan layer: lowering of an optimized
// plan (an algebra tree with a join tree of Nodes at each BGP leaf) into a
// tree of physical operators that the executor runs directly. The lowering fixes every execution decision —
// operator selection (index scan, index-nested-loop probe, hash or cross
// join), output schemas, build-side choices for leaf-leaf joins, and
// the placement of FILTER, ORDER BY, projection, DISTINCT and LIMIT — so a
// plan's rows, row order and accounting depend on the plan alone.

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

// Physical is a complete lowered plan: the operator tree.
type Physical struct {
	Root *PhysNode
}

// String renders the operator tree for debugging and EXPLAIN output.
func (p *Physical) String() string {
	var b strings.Builder
	p.Root.render(&b, 0)
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

// Lower translates the optimized logical plan p for compiled query c into a
// physical operator tree. Within a BGP leaf's join tree, operator selection
// follows fixed rules:
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
// Project, Distinct and Limit, in that order. Filters, ORDER BY keys and SELECT columns naming variables absent
// from the covering schema are lowering errors.
func Lower(c *Compiled, p *Plan) (*Physical, error) {
	if p == nil || p.Alg == nil {
		return nil, fmt.Errorf("plan: nil plan")
	}
	root, err := lowerAlg(p.Alg)
	if err != nil {
		return nil, err
	}
	root, err = epilogue(root, c.Query)
	if err != nil {
		return nil, err
	}
	return &Physical{Root: root}, nil
}

// lowerAlg lowers one algebra node, its subtree, and its attached filters.
func lowerAlg(a *AlgNode) (*PhysNode, error) {
	var root *PhysNode
	switch a.Kind {
	case AlgBGP:
		var err error
		root, err = lower(a.Root)
		if err != nil {
			return nil, err
		}
	case AlgJoin:
		lp, err := lowerAlg(a.Left)
		if err != nil {
			return nil, err
		}
		rp, err := lowerAlg(a.Right)
		if err != nil {
			return nil, err
		}
		root = joinNode(lp, rp, a.Card)
	case AlgLeftJoin:
		lp, err := lowerAlg(a.Left)
		if err != nil {
			return nil, err
		}
		rp, err := lowerAlg(a.Right)
		if err != nil {
			return nil, err
		}
		root = &PhysNode{
			Op:    PhysLeftJoin,
			Left:  lp,
			Right: rp,
			Vars:  joinSchema(lp.Vars, rp.Vars),
			Card:  a.Card,
		}
	case AlgUnion:
		un := &PhysNode{Op: PhysUnion, Card: a.Card}
		for _, br := range a.Branches {
			kid, err := lowerAlg(br)
			if err != nil {
				return nil, err
			}
			un.Kids = append(un.Kids, kid)
			un.Vars = joinSchema(un.Vars, kid.Vars)
		}
		root = un
	default:
		return nil, fmt.Errorf("plan: unknown algebra node %v", a.Kind)
	}
	return filterNode(root, a.Filters)
}

// epilogue appends aggregation (grouping + aggregates), HAVING, then the
// tail. Group-scoped filters, the root group's included, were already
// applied by lowerAlg, so q.Filters is not reapplied here.
func epilogue(root *PhysNode, q *sparql.Query) (*PhysNode, error) {
	if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		for _, v := range q.GroupBy {
			if varIndex(root.Vars, v) < 0 {
				return nil, fmt.Errorf("plan: GROUP BY unbound variable ?%s", v)
			}
		}
		vars := append([]sparql.Var(nil), q.GroupBy...)
		for _, ag := range q.Aggs {
			if ag.Var != "" && varIndex(root.Vars, ag.Var) < 0 {
				return nil, fmt.Errorf("plan: aggregate over unbound variable ?%s", ag.Var)
			}
			if varIndex(vars, ag.As) >= 0 {
				return nil, fmt.Errorf("plan: duplicate aggregate output ?%s", ag.As)
			}
			vars = append(vars, ag.As)
		}
		root = &PhysNode{
			Op:      PhysAggregate,
			Left:    root,
			Vars:    vars,
			GroupBy: append([]sparql.Var(nil), q.GroupBy...),
			Aggs:    append([]sparql.Aggregate(nil), q.Aggs...),
			Card:    root.Card,
		}
		var err error
		if root, err = filterNode(root, q.Having); err != nil {
			return nil, err
		}
	}
	return tail(root, q)
}

func lower(n *Node) (*PhysNode, error) {
	if n == nil {
		return nil, fmt.Errorf("plan: nil logical node")
	}
	if n.IsLeaf() {
		return scan(n), nil
	}
	left, right := n.Left, n.Right
	switch {
	case right.IsLeaf() && !left.IsLeaf():
		outer, err := lower(left)
		if err != nil {
			return nil, err
		}
		return probe(outer, right, n.Card), nil
	case left.IsLeaf() && !right.IsLeaf():
		outer, err := lower(right)
		if err != nil {
			return nil, err
		}
		return probe(outer, left, n.Card), nil
	case left.IsLeaf() && right.IsLeaf():
		// Scan the smaller (by estimated cardinality), probe the other.
		if left.Card <= right.Card {
			return probe(scan(left), right, n.Card), nil
		}
		return probe(scan(right), left, n.Card), nil
	default:
		lp, err := lower(left)
		if err != nil {
			return nil, err
		}
		rp, err := lower(right)
		if err != nil {
			return nil, err
		}
		return joinNode(lp, rp, n.Card), nil
	}
}

func scan(n *Node) *PhysNode {
	return &PhysNode{
		Op:   PhysIndexScan,
		Leaf: n.Leaf,
		Vars: n.Leaf.Vars(),
		Card: n.Card,
	}
}

// probe lowers a join whose one child is a bare leaf. When the leaf shares
// a variable with the outer schema (and its constants resolve), the join is
// an index-nested-loop probe; otherwise it degrades to a regular join of
// the outer with a full scan of the leaf.
func probe(outer *PhysNode, leafNode *Node, card float64) *PhysNode {
	cp := leafNode.Leaf
	anyShared := false
	for _, v := range cp.Vars() {
		if varIndex(outer.Vars, v) >= 0 {
			anyShared = true
			break
		}
	}
	if !anyShared || cp.Missing {
		return joinNode(outer, scan(leafNode), card)
	}
	return &PhysNode{
		Op:   PhysIndexProbe,
		Leaf: cp,
		Left: outer,
		Vars: probeSchema(outer.Vars, cp),
		Card: card,
	}
}

// joinNode builds the physical join of two composite inputs: a cross
// product when they share no variable, a hash join otherwise.
func joinNode(left, right *PhysNode, card float64) *PhysNode {
	op := PhysCross
	if schemasShareVar(left.Vars, right.Vars) {
		op = PhysHashJoin
	}
	return &PhysNode{
		Op:    op,
		Left:  left,
		Right: right,
		Vars:  joinSchema(left.Vars, right.Vars),
		Card:  card,
	}
}

// filterNode wraps root in a PhysFilter evaluating filters, which must be
// covered by root's schema; no filters leave root as it is.
func filterNode(root *PhysNode, filters []sparql.Filter) (*PhysNode, error) {
	if len(filters) == 0 {
		return root, nil
	}
	for _, f := range filters {
		if err := checkFilterCovered(f, root.Vars); err != nil {
			return nil, err
		}
	}
	return &PhysNode{Op: PhysFilter, Left: root, Vars: root.Vars, Filters: filters, Card: root.Card}, nil
}

// tail appends ORDER BY, projection, DISTINCT and LIMIT, in that order.
func tail(root *PhysNode, q *sparql.Query) (*PhysNode, error) {
	if len(q.OrderBy) > 0 {
		for _, k := range q.OrderBy {
			if varIndex(root.Vars, k.Var) < 0 {
				return nil, fmt.Errorf("plan: ORDER BY unbound variable ?%s", k.Var)
			}
		}
		root = &PhysNode{Op: PhysOrder, Left: root, Vars: root.Vars, Keys: q.OrderBy, Card: root.Card}
	}
	if len(q.Select) > 0 {
		for _, v := range q.Select {
			if varIndex(root.Vars, v) < 0 {
				return nil, fmt.Errorf("plan: SELECT of unbound variable ?%s", v)
			}
		}
		root = &PhysNode{Op: PhysProject, Left: root, Vars: append([]sparql.Var(nil), q.Select...), Card: root.Card}
	}
	if q.Distinct {
		root = &PhysNode{Op: PhysDistinct, Left: root, Vars: root.Vars, Card: root.Card}
	}
	if limit, has := q.LimitCount(); has || q.Offset > 0 {
		if !has {
			limit = -1 // offset without limit: skip rows, emit the rest
		}
		root = &PhysNode{Op: PhysLimit, Left: root, Vars: root.Vars, Limit: limit, Offset: q.Offset, Card: root.Card}
	}
	return root, nil
}

// checkFilterCovered verifies every variable of f is in the schema,
// mirroring the executor's unbound-variable errors.
func checkFilterCovered(f sparql.Filter, vars []sparql.Var) error {
	for _, n := range []sparql.Node{f.Left, f.Right} {
		switch n.Kind {
		case sparql.NodeVar:
			if varIndex(vars, n.Var) < 0 {
				return fmt.Errorf("plan: filter references unbound variable ?%s", n.Var)
			}
		case sparql.NodeParam:
			return fmt.Errorf("plan: filter contains unbound parameter %%%s", n.Param)
		}
	}
	return nil
}

// varIndex returns the column index of v in vars, or -1.
func varIndex(vars []sparql.Var, v sparql.Var) int {
	for i, x := range vars {
		if x == v {
			return i
		}
	}
	return -1
}

// probeSchema is the output schema of an index probe: the outer columns
// followed by the leaf's variables not bound by the outer side, in S,P,O
// first-occurrence order.
func probeSchema(outer []sparql.Var, cp *CompiledPattern) []sparql.Var {
	out := append([]sparql.Var(nil), outer...)
	seen := map[sparql.Var]bool{}
	for _, v := range [3]sparql.Var{cp.VarS, cp.VarP, cp.VarO} {
		if v == "" || varIndex(outer, v) >= 0 || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// joinSchema is the output schema of a binary join: all left columns, then
// right columns not already present.
func joinSchema(left, right []sparql.Var) []sparql.Var {
	out := append([]sparql.Var(nil), left...)
	for _, v := range right {
		if varIndex(left, v) < 0 {
			out = append(out, v)
		}
	}
	return out
}

// schemasShareVar reports whether the schemas have a variable in common.
func schemasShareVar(a, b []sparql.Var) bool {
	for _, v := range a {
		if varIndex(b, v) >= 0 {
			return true
		}
	}
	return false
}
