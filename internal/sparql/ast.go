// Package sparql implements the SPARQL subset needed by the paper's
// workloads: SELECT [DISTINCT] over basic graph patterns with FILTER
// comparisons, ORDER BY and LIMIT, plus PREFIX declarations. Query texts
// may contain substitution parameters written %name — exactly the template
// notation of the paper's introduction:
//
//	select * where {
//	  ?person sn:firstName %name .
//	  ?person sn:livesIn %country .
//	}
//
// A parsed query with parameters is a Template; binding all parameters
// yields an executable Query.
package sparql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Var is a SPARQL variable name, without the leading '?'.
type Var string

// Param is a substitution-parameter name, without the leading '%'.
type Param string

// NodeKind discriminates pattern node kinds.
type NodeKind uint8

const (
	// NodeTerm is a constant RDF term.
	NodeTerm NodeKind = iota
	// NodeVar is a query variable.
	NodeVar
	// NodeParam is an unbound substitution parameter.
	NodeParam
)

// Node is one position of a triple pattern: a constant term, a variable or
// a parameter.
type Node struct {
	Kind  NodeKind
	Term  rdf.Term
	Var   Var
	Param Param
}

// TermNode wraps a constant term.
func TermNode(t rdf.Term) Node { return Node{Kind: NodeTerm, Term: t} }

// VarNode wraps a variable.
func VarNode(v Var) Node { return Node{Kind: NodeVar, Var: v} }

// ParamNode wraps a parameter.
func ParamNode(p Param) Node { return Node{Kind: NodeParam, Param: p} }

// String renders the node in SPARQL-ish syntax.
func (n Node) String() string {
	switch n.Kind {
	case NodeVar:
		return "?" + string(n.Var)
	case NodeParam:
		return "%" + string(n.Param)
	default:
		return n.Term.String()
	}
}

// TriplePattern is one BGP triple pattern.
type TriplePattern struct {
	S, P, O Node
}

// String renders the pattern.
func (tp TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s .", tp.S, tp.P, tp.O)
}

// Vars returns the distinct variables of the pattern, in S,P,O order.
func (tp TriplePattern) Vars() []Var {
	var out []Var
	seen := map[Var]bool{}
	for _, n := range []Node{tp.S, tp.P, tp.O} {
		if n.Kind == NodeVar && !seen[n.Var] {
			seen[n.Var] = true
			out = append(out, n.Var)
		}
	}
	return out
}

// CompareOp is a FILTER comparison operator.
type CompareOp uint8

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Filter is a single comparison; a FILTER(a && b) clause parses into
// multiple Filters (conjunctive semantics).
type Filter struct {
	Left  Node
	Op    CompareOp
	Right Node
}

// String renders the filter.
func (f Filter) String() string {
	return fmt.Sprintf("FILTER(%s %s %s)", f.Left, f.Op, f.Right)
}

// OrderKey is one ORDER BY sort key.
type OrderKey struct {
	Var  Var
	Desc bool
}

// Query is a parsed SELECT query. A Query whose Params() is non-empty is a
// template and cannot be executed until bound.
//
// Where and Filters hold the root group's basic graph pattern; Unions,
// Optionals, GroupBy, Aggs and Having are the compositional-algebra
// extensions (see algebra.go) and stay empty for flat BGP queries, so
// code constructing Query literals for conjunctive shapes is unaffected.
type Query struct {
	Distinct bool
	Select   []Var // empty means SELECT *; includes aggregate aliases
	Where    []TriplePattern
	Filters  []Filter
	// Unions are joined with the root BGP in order; Optionals are
	// left-joined afterwards in order (the group normal form of
	// algebra.go).
	Unions    []*Union
	Optionals []*Group
	// GroupBy/Aggs/Having describe aggregation over the WHERE result.
	// Every aggregate's alias also appears in Select at its projection
	// position.
	GroupBy []Var
	Aggs    []Aggregate
	Having  []Filter
	OrderBy []OrderKey
	Limit   int // with HasLimit false, 0 means no limit (legacy literals)
	// HasLimit distinguishes an explicit LIMIT 0 (empty result) from no
	// LIMIT at all. The parser always sets it; code constructing Query
	// literals may keep using Limit > 0 alone.
	HasLimit bool
	Offset   int // rows to skip before the limit; 0 means none
}

// Root returns the root group graph pattern view of the query's WHERE
// clause.
func (q *Query) Root() *Group {
	return &Group{Patterns: q.Where, Filters: q.Filters, Unions: q.Unions, Optionals: q.Optionals}
}

// aggFor returns the aggregate whose alias is v, if any.
func (q *Query) aggFor(v Var) (Aggregate, bool) {
	for _, a := range q.Aggs {
		if a.As == v {
			return a, true
		}
	}
	return Aggregate{}, false
}

// LimitCount returns the effective limit and whether one applies: an
// explicit LIMIT (HasLimit, including LIMIT 0) or a legacy positive
// Limit.
func (q *Query) LimitCount() (int, bool) {
	if q.HasLimit || q.Limit > 0 {
		return q.Limit, true
	}
	return 0, false
}

// Vars returns all distinct variables mentioned in the WHERE clause,
// including nested UNION and OPTIONAL groups.
func (q *Query) Vars() []Var {
	return q.Root().Vars()
}

// Params returns the distinct parameter names in the query, sorted.
func (q *Query) Params() []Param {
	seen := map[Param]bool{}
	q.Root().walkNodes(func(n Node) {
		if n.Kind == NodeParam {
			seen[n.Param] = true
		}
	})
	for _, f := range q.Having {
		for _, n := range []Node{f.Left, f.Right} {
			if n.Kind == NodeParam {
				seen[n.Param] = true
			}
		}
	}
	out := make([]Param, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Binding maps parameter names to concrete terms.
type Binding map[Param]rdf.Term

// substNode replaces a parameter node with its bound term.
func substNode(n Node, b Binding) (Node, error) {
	if n.Kind != NodeParam {
		return n, nil
	}
	t, ok := b[n.Param]
	if !ok {
		return Node{}, fmt.Errorf("sparql: unbound parameter %%%s", n.Param)
	}
	return TermNode(t), nil
}

// bindPatterns deep-copies patterns with parameters substituted.
func bindPatterns(pats []TriplePattern, b Binding) ([]TriplePattern, error) {
	var out []TriplePattern
	for _, tp := range pats {
		s, err := substNode(tp.S, b)
		if err != nil {
			return nil, err
		}
		p, err := substNode(tp.P, b)
		if err != nil {
			return nil, err
		}
		o, err := substNode(tp.O, b)
		if err != nil {
			return nil, err
		}
		out = append(out, TriplePattern{S: s, P: p, O: o})
	}
	return out, nil
}

// bindFilters deep-copies filters with parameters substituted.
func bindFilters(fs []Filter, b Binding) ([]Filter, error) {
	var out []Filter
	for _, f := range fs {
		l, err := substNode(f.Left, b)
		if err != nil {
			return nil, err
		}
		r, err := substNode(f.Right, b)
		if err != nil {
			return nil, err
		}
		out = append(out, Filter{Left: l, Op: f.Op, Right: r})
	}
	return out, nil
}

// Bind returns a copy of q with every parameter replaced by its binding.
// It fails if any parameter is missing from b; extra bindings are ignored.
func (q *Query) Bind(b Binding) (*Query, error) {
	out := &Query{
		Distinct: q.Distinct,
		Select:   append([]Var(nil), q.Select...),
		GroupBy:  append([]Var(nil), q.GroupBy...),
		Aggs:     append([]Aggregate(nil), q.Aggs...),
		OrderBy:  append([]OrderKey(nil), q.OrderBy...),
		Limit:    q.Limit,
		HasLimit: q.HasLimit,
		Offset:   q.Offset,
	}
	root, err := q.Root().bind(b)
	if err != nil {
		return nil, err
	}
	out.Where = root.Patterns
	out.Filters = root.Filters
	out.Unions = root.Unions
	out.Optionals = root.Optionals
	if out.Having, err = bindFilters(q.Having, b); err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the query in parseable SPARQL-subset syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	if len(q.Select) == 0 {
		b.WriteString("*")
	} else {
		for i, v := range q.Select {
			if i > 0 {
				b.WriteByte(' ')
			}
			if a, ok := q.aggFor(v); ok {
				b.WriteString(a.String())
			} else {
				b.WriteString("?" + string(v))
			}
		}
	}
	b.WriteString(" WHERE {\n")
	q.Root().render(&b, 1)
	b.WriteString("}")
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY")
		for _, v := range q.GroupBy {
			b.WriteString(" ?" + string(v))
		}
	}
	if len(q.Having) > 0 {
		b.WriteString(" HAVING(")
		for i, f := range q.Having {
			if i > 0 {
				b.WriteString(" && ")
			}
			fmt.Fprintf(&b, "%s %s %s", f.Left, f.Op, f.Right)
		}
		b.WriteString(")")
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY")
		for _, k := range q.OrderBy {
			if k.Desc {
				b.WriteString(" DESC(?" + string(k.Var) + ")")
			} else {
				b.WriteString(" ?" + string(k.Var))
			}
		}
	}
	if _, has := q.LimitCount(); has {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", q.Offset)
	}
	return b.String()
}
