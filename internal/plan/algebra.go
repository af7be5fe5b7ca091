package plan

import (
	"fmt"
	"strings"

	"repro/internal/sparql"
	"repro/internal/store"
)

// This file implements the logical algebra layer above the join-ordering
// optimizer: every query compiles into a tree whose leaves are basic graph
// patterns and whose interior nodes are Join, LeftJoin and Union. A flat
// query is one BGP leaf. DPsub (or the greedy fallback) runs per BGP leaf;
// the composition operators above the leaves have fixed shapes dictated by
// the query text, so there is nothing for the optimizer to enumerate
// there. Aggregation (GROUP BY / aggregates / HAVING) always sits at the
// root of the WHERE result and is appended by the lowering epilogue.

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
	Root *Node   // AlgBGP: the optimized join tree over Compiled
	Card float64 // coarse composed cardinality estimate (informational)
	Cost float64 // coarse composed Cout estimate (informational)
	sig  string  // AlgBGP: Root's Signature, as the optimizer built it
}

// Signature composes a canonical identity string: BGP leaves use their
// join-tree signature, composition nodes tag their shape.
func (a *AlgNode) Signature() string {
	switch a.Kind {
	case AlgBGP:
		if a.sig != "" {
			return a.sig
		}
		return a.Root.Signature()
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

// compileGroup lowers a group graph pattern onto the dictionary into
// *dst: the algebra expression Join(BGP, unions...) left-joined with each
// optional, with the group's filters attached to the expression root. nb
// numbers patterns and variables across the whole query.
func compileGroup(dst *AlgNode, g *sparql.Group, st store.Source, nb *numbering) error {
	built := false
	// compose makes the expression built so far the left input of a new
	// root of the given kind over right.
	compose := func(kind AlgKind, right *AlgNode) {
		left := new(AlgNode)
		*left = *dst
		*dst = AlgNode{Kind: kind, Left: left, Right: right}
	}
	if len(g.Patterns) > 0 {
		compiled, err := compilePatterns(g.Patterns, st, nb)
		if err != nil {
			return err
		}
		*dst, built = AlgNode{Kind: AlgBGP, Patterns: g.Patterns, Compiled: compiled}, true
	}
	for _, u := range g.Unions {
		un := AlgNode{Kind: AlgUnion}
		for _, br := range u.Branches {
			be := new(AlgNode)
			if err := compileGroup(be, br, st, nb); err != nil {
				return err
			}
			un.Branches = append(un.Branches, be)
		}
		if built {
			compose(AlgJoin, &un)
		} else {
			*dst, built = un, true
		}
	}
	for _, o := range g.Optionals {
		if !built {
			return fmt.Errorf("plan: OPTIONAL requires a preceding pattern in its group")
		}
		oe := new(AlgNode)
		if err := compileGroup(oe, o, st, nb); err != nil {
			return err
		}
		compose(AlgLeftJoin, oe)
	}
	if !built {
		return fmt.Errorf("plan: empty group graph pattern")
	}
	dst.Filters = g.Filters // dst was built above and has none yet
	return nil
}

// optimizeAlg runs the join-ordering optimizer over every BGP leaf and
// composes the per-leaf plans. It writes a copy of the tree (the compiled
// tree stays reusable) with Root/Card/Cost filled in to *out, and reports
// whether any leaf fell back to greedy. The composition estimates are
// deliberately coarse — they are informational; no optimization choice
// depends on them.
func optimizeAlg(a, out *AlgNode, est *Estimator) (greedy bool) {
	*out = AlgNode{Kind: a.Kind, Patterns: a.Patterns, Compiled: a.Compiled, Filters: a.Filters}
	switch a.Kind {
	case AlgBGP:
		if len(a.Compiled) <= MaxDPPatterns {
			out.Root, out.sig = optimizeDP(a.Compiled, est)
		} else {
			out.Root, out.sig = optimizeGreedy(a.Compiled, est)
			greedy = true
		}
		out.Card, out.Cost = out.Root.Card, out.Root.Cost
	case AlgJoin, AlgLeftJoin:
		l, r := new(AlgNode), new(AlgNode)
		lg, rg := optimizeAlg(a.Left, l, est), optimizeAlg(a.Right, r, est)
		out.Left, out.Right, greedy = l, r, lg || rg
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
			ob := new(AlgNode)
			g := optimizeAlg(br, ob, est)
			out.Branches = append(out.Branches, ob)
			out.Card += ob.Card
			out.Cost += ob.Cost
			greedy = greedy || g
		}
		out.Cost += out.Card
	}
	return greedy
}
