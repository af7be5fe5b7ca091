package plan

import (
	"fmt"
	"strings"

	"repro/internal/sparql"
	"repro/internal/store"
)

// This file implements the logical algebra layer above the join-ordering
// optimizer: queries using OPTIONAL, UNION or aggregation compile into a
// tree whose leaves are basic graph patterns and whose interior nodes
// are Join, LeftJoin and Union. DPsub (or the greedy fallback) runs
// per BGP leaf exactly as it does for flat queries; the composition
// operators above the leaves have fixed shapes dictated by the query
// text, so there is nothing for the optimizer to enumerate there.
// Aggregation (GROUP BY / aggregates / HAVING) always sits at the root
// of the WHERE result and is appended by the lowering epilogue.

// AlgKind discriminates algebra node kinds.
type AlgKind uint8

// Algebra node kinds.
const (
	// AlgBGP is a basic-graph-pattern leaf, optimized by DPsub.
	AlgBGP AlgKind = iota
	// AlgJoin is the inner join of two sub-expressions (a group's BGP
	// joined with its UNION blocks).
	AlgJoin
	// AlgLeftJoin is the left outer join of Left with Right (OPTIONAL).
	AlgLeftJoin
	// AlgUnion is the ordered concatenation of its branches, padding
	// branch-local variables with the unbound sentinel.
	AlgUnion
)

// String names the kind for rendering.
func (k AlgKind) String() string {
	switch k {
	case AlgBGP:
		return "BGP"
	case AlgJoin:
		return "Join"
	case AlgLeftJoin:
		return "LeftJoin"
	case AlgUnion:
		return "Union"
	default:
		return fmt.Sprintf("alg(%d)", uint8(k))
	}
}

// AlgNode is one node of the logical algebra tree. Pattern indexes are
// global across the whole query (compile order), so signatures and
// EXPLAIN output stay unambiguous.
type AlgNode struct {
	Kind     AlgKind
	Patterns []sparql.TriplePattern // AlgBGP: the leaf's source patterns
	Compiled []CompiledPattern      // AlgBGP: compiled onto the dictionary
	Filters  []sparql.Filter        // group-scoped filters over this node's output
	Left     *AlgNode               // AlgJoin / AlgLeftJoin
	Right    *AlgNode
	Branches []*AlgNode // AlgUnion

	// Optimizer output (set on the copy stored in Plan.Alg):
	Root *Node   // AlgBGP: the DPsub-optimized join tree over Compiled
	Card float64 // coarse composed cardinality estimate (informational)
	Cost float64 // coarse composed Cout estimate (informational)
}

// Vars returns the node's output schema: left/BGP columns first, then
// the new columns each composed input introduces, mirroring the physical
// operators' schemas exactly.
func (a *AlgNode) Vars() []sparql.Var {
	switch a.Kind {
	case AlgBGP:
		var out []sparql.Var
		for i := range a.Compiled {
			for _, v := range a.Compiled[i].Vars() {
				if varIndex(out, v) < 0 {
					out = append(out, v)
				}
			}
		}
		return out
	case AlgJoin, AlgLeftJoin:
		return joinSchema(a.Left.Vars(), a.Right.Vars())
	case AlgUnion:
		var out []sparql.Var
		for _, br := range a.Branches {
			out = joinSchema(out, br.Vars())
		}
		return out
	}
	return nil
}

// Signature composes a canonical identity string: BGP leaves use their
// join-tree signature, composition nodes tag their shape.
func (a *AlgNode) Signature() string {
	switch a.Kind {
	case AlgBGP:
		if a.Root != nil {
			return a.Root.Signature()
		}
		var b strings.Builder
		b.WriteString("bgp(")
		for i := range a.Compiled {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "p%d", a.Compiled[i].Index)
		}
		b.WriteByte(')')
		return b.String()
	case AlgJoin:
		return "jn(" + a.Left.Signature() + "*" + a.Right.Signature() + ")"
	case AlgLeftJoin:
		return "lj(" + a.Left.Signature() + "," + a.Right.Signature() + ")"
	case AlgUnion:
		parts := make([]string, len(a.Branches))
		for i, br := range a.Branches {
			parts[i] = br.Signature()
		}
		return "un(" + strings.Join(parts, "|") + ")"
	}
	return "?"
}

// render writes the optimized algebra tree for Plan.String.
func (a *AlgNode) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s card=%.0f cost=%.0f", indent, a.Kind, a.Card, a.Cost)
	for _, f := range a.Filters {
		fmt.Fprintf(b, " %s", f)
	}
	b.WriteString("\n")
	switch a.Kind {
	case AlgBGP:
		if a.Root != nil {
			a.Root.render(b, depth+1)
		}
	case AlgJoin, AlgLeftJoin:
		a.Left.render(b, depth+1)
		a.Right.render(b, depth+1)
	case AlgUnion:
		for _, br := range a.Branches {
			br.render(b, depth+1)
		}
	}
}

// compileGroup lowers a group graph pattern onto the dictionary,
// producing the algebra expression Join(BGP, unions...) left-joined with
// each optional, with the group's filters attached to the expression
// root. nb numbers patterns and variables across the whole query.
func compileGroup(g *sparql.Group, st store.Source, nb *numbering) (*AlgNode, error) {
	var expr *AlgNode
	if len(g.Patterns) > 0 {
		leaf, err := compileBGP(g.Patterns, st, nb)
		if err != nil {
			return nil, err
		}
		expr = leaf
	}
	for _, u := range g.Unions {
		un := &AlgNode{Kind: AlgUnion}
		for _, br := range u.Branches {
			be, err := compileGroup(br, st, nb)
			if err != nil {
				return nil, err
			}
			un.Branches = append(un.Branches, be)
		}
		if expr == nil {
			expr = un
		} else {
			expr = &AlgNode{Kind: AlgJoin, Left: expr, Right: un}
		}
	}
	for _, o := range g.Optionals {
		if expr == nil {
			return nil, fmt.Errorf("plan: OPTIONAL requires a preceding pattern in its group")
		}
		oe, err := compileGroup(o, st, nb)
		if err != nil {
			return nil, err
		}
		expr = &AlgNode{Kind: AlgLeftJoin, Left: expr, Right: oe}
	}
	if expr == nil {
		return nil, fmt.Errorf("plan: empty group graph pattern")
	}
	expr.Filters = append(expr.Filters, g.Filters...)
	return expr, nil
}

// compileBGP compiles one basic graph pattern leaf.
func compileBGP(pats []sparql.TriplePattern, st store.Source, nb *numbering) (*AlgNode, error) {
	compiled, err := compilePatterns(pats, st, nb)
	if err != nil {
		return nil, err
	}
	return &AlgNode{Kind: AlgBGP, Patterns: pats, Compiled: compiled}, nil
}

// optimizeAlg runs the join-ordering optimizer over every BGP leaf and
// composes the per-leaf plans. It returns a copy of the tree (the
// compiled tree stays reusable across option sets) with Root/Card/Cost
// filled in. The composition estimates are deliberately coarse — they
// are informational; no optimization choice depends on them.
func optimizeAlg(a *AlgNode, q *sparql.Query, est *Estimator, greedy bool) (*AlgNode, error) {
	out := &AlgNode{Kind: a.Kind, Patterns: a.Patterns, Compiled: a.Compiled, Filters: a.Filters}
	switch a.Kind {
	case AlgBGP:
		sub := &Compiled{Query: q, Patterns: out.Compiled}
		var (
			p   *Plan
			err error
		)
		if greedy {
			p, err = OptimizeGreedy(sub, est)
		} else {
			p, err = Optimize(sub, est)
		}
		if err != nil {
			return nil, err
		}
		out.Root = p.Root
		out.Card = p.EstCard
		out.Cost = p.EstCost
	case AlgJoin, AlgLeftJoin:
		l, err := optimizeAlg(a.Left, q, est, greedy)
		if err != nil {
			return nil, err
		}
		r, err := optimizeAlg(a.Right, q, est, greedy)
		if err != nil {
			return nil, err
		}
		out.Left, out.Right = l, r
		if a.Kind == AlgLeftJoin {
			// Every outer row emits at least once.
			out.Card = l.Card
		} else if l.Card > r.Card {
			out.Card = l.Card
		} else {
			out.Card = r.Card
		}
		out.Cost = out.Card + l.Cost + r.Cost
	case AlgUnion:
		for _, br := range a.Branches {
			ob, err := optimizeAlg(br, q, est, greedy)
			if err != nil {
				return nil, err
			}
			out.Branches = append(out.Branches, ob)
			out.Card += ob.Card
			out.Cost += ob.Cost
		}
		out.Cost += out.Card
	}
	return out, nil
}
