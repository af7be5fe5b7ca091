package difftest

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// The naive oracle: a reference evaluator written straight from the sparql
// AST, sharing no code with exec or plan. A BGP is nested loops over
// store.Source.Match in text order, each pattern probed with the bindings
// of the patterns before it; groups, UNION, OPTIONAL, FILTER, aggregation,
// HAVING, ORDER BY, projection, DISTINCT and the slice follow the subset's
// normal form (sparql/algebra.go) one solution at a time. There is no
// optimizer, no physical plan and no accounting — the oracle answers only
// "which rows", which is what the engine must never get wrong whatever plan
// it picks.
//
// The subset's fixed unbound semantics are re-implemented, not imported:
// an unbound variable is equal only to unbound in joins and grouping, fails
// every FILTER comparison, sorts first, and is skipped by every aggregate
// except COUNT(*). SUM and AVG add in solution order, which differs from the
// engine's; the comparison stays exact as long as the summed values are
// integers, as every generated and benchmark dataset's are.

// solution maps variables to terms; an absent variable is unbound.
type solution map[sparql.Var]rdf.Term

// relation is a schema plus its solutions.
type relation struct {
	vars []sparql.Var
	rows []solution
}

// evalQuery evaluates q over st up to (not including) OFFSET/LIMIT.
func evalQuery(st store.Source, q *sparql.Query) (relation, error) {
	r, err := group(st, q.Root())
	if err != nil {
		return relation{}, err
	}
	if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		r = aggregate(r, q)
		r.rows = filter(r.rows, q.Having)
	}
	sort.SliceStable(r.rows, func(i, j int) bool { return orderLess(r.rows[i], r.rows[j], q.OrderBy) })
	if len(q.Select) > 0 {
		r.vars = q.Select
	}
	if q.Distinct {
		seen := map[string]bool{}
		r.rows = slices.DeleteFunc(r.rows, func(s solution) bool {
			k := rowKey(s, r.vars)
			dup := seen[k]
			seen[k] = true
			return dup
		})
	}
	return r, nil
}

// group evaluates a group graph pattern: its BGP joined with every UNION,
// left-joined with every OPTIONAL, then filtered.
func group(st store.Source, g *sparql.Group) (relation, error) {
	var r *relation
	if len(g.Patterns) > 0 {
		b := bgp(st, g.Patterns)
		r = &b
	}
	for _, u := range g.Unions {
		var un relation
		for _, br := range u.Branches {
			b, err := group(st, br)
			if err != nil {
				return relation{}, err
			}
			un.vars = mergeVars(un.vars, b.vars)
			un.rows = append(un.rows, b.rows...)
		}
		if r != nil {
			un = join(*r, un, false)
		}
		r = &un
	}
	for _, opt := range g.Optionals {
		if r == nil {
			return relation{}, fmt.Errorf("OPTIONAL without a preceding pattern")
		}
		b, err := group(st, opt)
		if err != nil {
			return relation{}, err
		}
		*r = join(*r, b, true)
	}
	if r == nil {
		return relation{}, fmt.Errorf("empty group")
	}
	r.rows = filter(r.rows, g.Filters)
	return *r, nil
}

// bgp evaluates a basic graph pattern by nested loops in text order.
func bgp(st store.Source, pats []sparql.TriplePattern) relation {
	d := st.Dict()
	r := relation{rows: []solution{{}}}
	for _, tp := range pats {
		nodes := [3]sparql.Node{tp.S, tp.P, tp.O}
		for _, n := range nodes {
			if n.Kind == sparql.NodeVar {
				r.vars = mergeVars(r.vars, []sparql.Var{n.Var})
			}
		}
		var next []solution
	rows:
		for _, s := range r.rows {
			var ids [3]dict.ID
			for i, n := range nodes {
				t, bound := n.Term, n.Kind == sparql.NodeTerm
				if n.Kind == sparql.NodeVar {
					t, bound = s[n.Var]
				}
				if bound {
					var ok bool
					if ids[i], ok = d.Lookup(t); !ok {
						continue rows
					}
				}
			}
			matches, _ := st.Match(store.Pattern{S: ids[0], P: ids[1], O: ids[2]})
		match:
			for _, m := range matches {
				ext := maps.Clone(s)
				for i, id := range [3]dict.ID{m.S, m.P, m.O} {
					if n := nodes[i]; n.Kind == sparql.NodeVar {
						t := d.Decode(id)
						if prev, ok := ext[n.Var]; ok && prev != t {
							continue match // a variable repeated inside the pattern disagrees
						}
						ext[n.Var] = t
					}
				}
				next = append(next, ext)
			}
		}
		r.rows = next
	}
	return r
}

// join is the inner (or, with left, the left outer) join of l and r:
// rows combine when every variable of both schemas is unbound on both
// sides or bound to the same term on both — when their keys over the
// shared variables are equal.
func join(l, r relation, left bool) relation {
	var shared []sparql.Var
	for _, v := range r.vars {
		if slices.Contains(l.vars, v) {
			shared = append(shared, v)
		}
	}
	byKey := map[string][]solution{}
	for _, b := range r.rows {
		k := rowKey(b, shared)
		byKey[k] = append(byKey[k], b)
	}
	out := relation{vars: mergeVars(l.vars, r.vars)}
	for _, a := range l.rows {
		matches := byKey[rowKey(a, shared)]
		for _, b := range matches {
			c := maps.Clone(b)
			maps.Copy(c, a)
			out.rows = append(out.rows, c)
		}
		if left && len(matches) == 0 {
			out.rows = append(out.rows, a)
		}
	}
	return out
}

// filter keeps the solutions passing every comparison.
func filter(rows []solution, fs []sparql.Filter) []solution {
	return slices.DeleteFunc(rows, func(s solution) bool {
		for _, f := range fs {
			if !holds(s, f) {
				return true
			}
		}
		return false
	})
}

// holds evaluates one comparison: numeric when both sides are numeric
// literals; otherwise term (in)equality, or lexical order of the values.
func holds(s solution, f sparql.Filter) bool {
	side := func(n sparql.Node) (rdf.Term, bool) {
		if n.Kind == sparql.NodeVar {
			t, ok := s[n.Var]
			return t, ok
		}
		return n.Term, true
	}
	l, lok := side(f.Left)
	r, rok := side(f.Right)
	if !lok || !rok {
		return false
	}
	lf, lnum := number(l)
	rf, rnum := number(r)
	c := strings.Compare(l.Value, r.Value)
	switch {
	case lnum && rnum:
		c = cmpFloat(lf, rf)
	case f.Op == sparql.OpEq || f.Op == sparql.OpNe:
		c = 1
		if l == r {
			c = 0
		}
	}
	return [...]bool{sparql.OpEq: c == 0, sparql.OpNe: c != 0, sparql.OpLt: c < 0,
		sparql.OpLe: c <= 0, sparql.OpGt: c > 0, sparql.OpGe: c >= 0}[f.Op]
}

func number(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal || (t.Datatype != rdf.XSDInteger && t.Datatype != rdf.XSDDecimal && t.Datatype != rdf.XSDDouble) {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	return f, err == nil
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// order compares two optional terms for ORDER BY, MIN and MAX: unbound
// first, numbers numerically, everything else by the total term order.
func order(a rdf.Term, aok bool, b rdf.Term, bok bool) int {
	af, anum := number(a)
	bf, bnum := number(b)
	switch {
	case aok != bok:
		if aok {
			return 1
		}
		return -1
	case !aok:
		return 0
	case anum && bnum:
		return cmpFloat(af, bf)
	}
	return a.Compare(b)
}

func orderLess(a, b solution, keys []sparql.OrderKey) bool {
	for _, k := range keys {
		x, xok := a[k.Var]
		y, yok := b[k.Var]
		if c := order(x, xok, y, yok); c != 0 {
			return (c < 0) != k.Desc
		}
	}
	return false
}

// aggregate groups r by q.GroupBy (one global group when there is none,
// even over no rows) and evaluates q.Aggs per group.
func aggregate(r relation, q *sparql.Query) relation {
	out := relation{vars: slices.Clone(q.GroupBy)}
	for _, a := range q.Aggs {
		out.vars = append(out.vars, a.As)
	}
	var keys []string
	groups := map[string][]solution{}
	if len(q.GroupBy) == 0 {
		keys, groups[""] = []string{""}, nil
	}
	for _, s := range r.rows {
		k := rowKey(s, q.GroupBy)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], s)
	}
	for _, k := range keys {
		res := solution{}
		if rows := groups[k]; len(rows) > 0 {
			for _, v := range q.GroupBy {
				if t, ok := rows[0][v]; ok {
					res[v] = t
				}
			}
		}
		for _, a := range q.Aggs {
			if t, ok := fold(a, groups[k]); ok {
				res[a.As] = t
			}
		}
		out.rows = append(out.rows, res)
	}
	return out
}

// fold evaluates one aggregate over a group's solutions.
func fold(a sparql.Aggregate, rows []solution) (rdf.Term, bool) {
	if a.Var == "" {
		return rdf.NewInteger(int64(len(rows))), true // COUNT(*)
	}
	var vals []rdf.Term
	for _, s := range rows {
		if t, ok := s[a.Var]; ok && (!a.Distinct || !slices.Contains(vals, t)) {
			vals = append(vals, t)
		}
	}
	var sum float64
	n, allInt := 0, true
	for _, t := range vals {
		if f, ok := number(t); ok {
			sum, n = sum+f, n+1
			allInt = allInt && t.Datatype == rdf.XSDInteger
		}
	}
	decimal := func(f float64) rdf.Term {
		return rdf.NewTypedLiteral(strconv.FormatFloat(f, 'g', -1, 64), rdf.XSDDecimal)
	}
	switch a.Func {
	case sparql.AggCount:
		return rdf.NewInteger(int64(len(vals))), true
	case sparql.AggSum:
		if allInt {
			return rdf.NewInteger(int64(sum)), true
		}
		return decimal(sum), true
	case sparql.AggAvg:
		return decimal(sum / float64(n)), n > 0
	}
	if len(vals) == 0 {
		return rdf.Term{}, false
	}
	best := vals[0] // MIN or MAX: the first of the winning values
	for _, t := range vals[1:] {
		if c := order(t, true, best, true); (a.Func == sparql.AggMin && c < 0) || (a.Func == sparql.AggMax && c > 0) {
			best = t
		}
	}
	return best, true
}

func mergeVars(a, b []sparql.Var) []sparql.Var {
	out := slices.Clone(a)
	for _, v := range b {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// rowKey renders a solution over vars; unbound renders as UNDEF.
func rowKey(s solution, vars []sparql.Var) string {
	var b strings.Builder
	for _, v := range vars {
		if t, ok := s[v]; ok {
			b.WriteString(t.String())
		} else {
			b.WriteString("UNDEF")
		}
		b.WriteByte('\t')
	}
	return b.String()
}
