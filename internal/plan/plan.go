package plan

import (
	"fmt"
	"strings"
)

// Node is a node of a logical join tree. A leaf is a triple-pattern scan; an
// inner node is a join. Card and Cost carry the estimator's output
// cardinality and accumulated Cout.
//
// Cout follows the paper's definition exactly:
//
//	Cout(T) = 0                                  if T is a scan
//	Cout(T) = |T| + Cout(T1) + Cout(T2)          if T = T1 ⋈ T2
//
// so a plan's cost is the sum of the sizes of all intermediate (and final)
// join results, and scans are free.
type Node struct {
	Leaf        *CompiledPattern // non-nil for scan leaves
	Left, Right *Node            // non-nil for joins
	Card        float64          // estimated output cardinality |T|
	Cost        float64          // estimated Cout(T)
}

// IsLeaf reports whether n is a scan.
func (n *Node) IsLeaf() bool { return n.Leaf != nil }

// Patterns returns the indexes of all patterns under n, in ascending order
// of first appearance (left to right).
func (n *Node) Patterns() []int {
	var out []int
	var walk func(*Node)
	walk = func(x *Node) {
		if x == nil {
			return
		}
		if x.IsLeaf() {
			out = append(out, x.Leaf.Index)
			return
		}
		walk(x.Left)
		walk(x.Right)
	}
	walk(n)
	return out
}

// Signature returns a canonical string identifying the plan's join shape
// over pattern indexes. Join commutativity is canonicalized (the two
// children are ordered lexicographically), so T1 ⋈ T2 and T2 ⋈ T1 share a
// signature, but different association shapes do not. Signatures implement
// the paper's plan-equality test in conditions (a) and (c).
func (n *Node) Signature() string {
	if n == nil {
		return ""
	}
	if n.IsLeaf() {
		return fmt.Sprintf("p%d", n.Leaf.Index)
	}
	l, r := n.Left.Signature(), n.Right.Signature()
	if l > r {
		l, r = r, l
	}
	return "(" + l + "*" + r + ")"
}

// String renders the tree with cardinalities, for debugging and reports.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsLeaf() {
		fmt.Fprintf(b, "%sScan p%d %v card=%.0f\n", indent, n.Leaf.Index, n.Leaf.Pat, n.Card)
		return
	}
	fmt.Fprintf(b, "%sJoin card=%.0f cost=%.0f\n", indent, n.Card, n.Cost)
	n.Left.render(b, depth+1)
	n.Right.render(b, depth+1)
}

// Plan is the result of optimization: the algebra tree with every BGP
// leaf's join tree chosen, and its lowering to physical operators. A plan
// is immutable once Optimize returns it, so concurrent runs may share it.
type Plan struct {
	Alg       *AlgNode  // &root
	Phys      *PhysNode // the physical operator tree the executor runs
	EstCost   float64   // estimated Cout of the whole plan
	EstCard   float64   // estimated result cardinality
	Signature string    // canonical plan identity
	Method    string    // "greedy" if any BGP leaf fell back to greedy, else "dp"

	root AlgNode // the tree's root, allocated with the plan
}

// String renders the plan.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan[%s] cost=%.1f card=%.1f sig=%s\n", p.Method, p.EstCost, p.EstCard, p.Signature)
	p.Alg.render(&b, 0)
	return b.String()
}
