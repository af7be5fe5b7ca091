// Package plan implements the logical query-plan layer: compilation of a
// bound SPARQL query into a join graph, cardinality estimation backed by
// exact store statistics, the classical Cout cost function ("sum of
// intermediate result sizes", Moerkotte), and join ordering per basic
// graph pattern — exact dynamic programming over pattern subsets (DPsub),
// with a greedy fallback for patterns beyond MaxDPPatterns.
//
// Plan identity is captured by a canonical Signature string: the paper's
// conditions (a) and (c) — same/different optimal plan across parameter
// bindings — are decided by comparing signatures.
package plan

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/dict"
	"repro/internal/sparql"
	"repro/internal/store"
)

// MaxVars is the most distinct variables a query may use: the optimizer
// keeps a query's variable set in one uint64.
const MaxVars = 64

// CompiledPattern is one triple pattern translated to the ID space.
type CompiledPattern struct {
	Index   int           // global position in compile order (WHERE clause order for flat queries)
	Pat     store.Pattern // bound positions carry IDs; variables are None
	VarS    sparql.Var    // variable name per position ("" if bound)
	VarP    sparql.Var
	VarO    sparql.Var
	Missing bool // a constant term does not occur in the dictionary ⇒ empty
	// VarMask has bit v set for every variable of the pattern, where v is
	// the variable's number in Compiled.Vars.
	VarMask uint64
	num     [3]uint8 // variable number per position; meaningful only where the position is a variable
}

// Vars returns the distinct variables of the pattern.
func (cp CompiledPattern) Vars() []sparql.Var {
	var out []sparql.Var
	for _, v := range [3]sparql.Var{cp.VarS, cp.VarP, cp.VarO} {
		if v != "" && !slices.Contains(out, v) {
			if out == nil {
				out = make([]sparql.Var, 0, 3)
			}
			out = append(out, v)
		}
	}
	return out
}

// Compiled is a query lowered to the ID space, ready for optimization and
// execution.
//
// Alg holds the logical algebra tree whose BGP leaves own the per-leaf
// pattern slices; a flat query is one BGP leaf. Patterns is every leaf's
// patterns in global index order — the leaf's own slice for a flat query,
// a concatenation otherwise. It is informational only; execution follows
// Alg.
type Compiled struct {
	Query    *sparql.Query
	Patterns []CompiledPattern
	Alg      *AlgNode // &root
	// Vars names the query's pattern variables by number, in order of
	// first appearance; CompiledPattern.VarMask indexes it.
	Vars []sparql.Var

	root AlgNode // the tree's root, allocated with the compiled query
}

// numVars returns one more than the highest variable number of pats:
// the length a Set's Distinct needs to estimate them.
func numVars(pats []CompiledPattern) int {
	var m uint64
	for i := range pats {
		m |= pats[i].VarMask
	}
	return bits.Len64(m)
}

// Compile lowers a fully bound query (no parameters) onto a store's
// dictionary. Constant terms missing from the dictionary are legal — the
// pattern is marked Missing and has cardinality zero.
func Compile(q *sparql.Query, st store.Source) (*Compiled, error) {
	if ps := q.Params(); len(ps) != 0 {
		return nil, fmt.Errorf("plan: query has unbound parameters %v", ps)
	}
	if q.Root().Empty() {
		return nil, fmt.Errorf("plan: empty WHERE clause")
	}
	var nb numbering
	c := &Compiled{Query: q}
	if err := compileGroup(&c.root, q.Root(), st, &nb); err != nil {
		return nil, err
	}
	c.Alg, c.Vars = &c.root, nb.vars
	if c.root.Kind == AlgBGP {
		c.Patterns = c.root.Compiled
	} else {
		c.Patterns = collectPatterns(&c.root, nil)
	}
	return c, nil
}

// numbering hands out pattern indexes in compile order and variable
// numbers in order of first appearance, across one query.
type numbering struct {
	idx  int
	vars []sparql.Var
}

// compilePatterns lowers one basic graph pattern onto the dictionary,
// numbering its patterns and variables through nb.
func compilePatterns(pats []sparql.TriplePattern, st store.Source, nb *numbering) ([]CompiledPattern, error) {
	d := st.Dict()
	out := make([]CompiledPattern, 0, len(pats))
	for _, tp := range pats {
		cp := CompiledPattern{Index: nb.idx}
		nb.idx++
		nodes := [3]sparql.Node{tp.S, tp.P, tp.O}
		ids := [3]*dict.ID{&cp.Pat.S, &cp.Pat.P, &cp.Pat.O}
		vars := [3]*sparql.Var{&cp.VarS, &cp.VarP, &cp.VarO}
		for pos, n := range nodes {
			switch n.Kind {
			case sparql.NodeVar:
				num := slices.Index(nb.vars, n.Var)
				if num < 0 {
					if len(nb.vars) == MaxVars {
						return nil, fmt.Errorf("plan: query has more than %d distinct variables", MaxVars)
					}
					num = len(nb.vars)
					nb.vars = append(nb.vars, n.Var)
				}
				*vars[pos] = n.Var
				cp.num[pos] = uint8(num)
				cp.VarMask |= 1 << num
			case sparql.NodeTerm:
				got, ok := d.Lookup(n.Term)
				if !ok {
					cp.Missing = true
					continue
				}
				*ids[pos] = got
			}
		}
		out = append(out, cp)
	}
	return out, nil
}

// collectPatterns appends every BGP leaf's compiled patterns in tree
// (= global index) order.
func collectPatterns(a *AlgNode, out []CompiledPattern) []CompiledPattern {
	switch a.Kind {
	case AlgBGP:
		out = append(out, a.Compiled...)
	case AlgJoin, AlgLeftJoin:
		out = collectPatterns(a.Left, out)
		out = collectPatterns(a.Right, out)
	case AlgUnion:
		for _, br := range a.Branches {
			out = collectPatterns(br, out)
		}
	}
	return out
}
