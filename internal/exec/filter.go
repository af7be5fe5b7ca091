package exec

import (
	"slices"
	"strconv"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// compiledFilter is one FILTER comparison resolved against a schema:
// variable sides carry a column index, constant sides a term.
type compiledFilter struct {
	leftCol, rightCol   int // -1 when the side is a constant
	leftTerm, rightTerm rdf.Term
	op                  sparql.CompareOp
}

// compileFilters resolves filters against a schema that binds every
// variable they name (the lowering checked it).
func compileFilters(vars []sparql.Var, filters []sparql.Filter) []compiledFilter {
	cs := make([]compiledFilter, len(filters))
	for i, f := range filters {
		cs[i] = compiledFilter{leftCol: -1, rightCol: -1, leftTerm: f.Left.Term, rightTerm: f.Right.Term, op: f.Op}
		if f.Left.Kind == sparql.NodeVar {
			cs[i].leftCol = slices.Index(vars, f.Left.Var)
		}
		if f.Right.Kind == sparql.NodeVar {
			cs[i].rightCol = slices.Index(vars, f.Right.Var)
		}
	}
	return cs
}

// evalCompare implements the comparison semantics: equality is term
// equality (with numeric coercion when both sides are numeric literals);
// ordering is numeric when both sides are numeric literals and lexical
// otherwise (which orders ISO dates correctly).
func evalCompare(l rdf.Term, op sparql.CompareOp, r rdf.Term) bool {
	lf, lok := numericValue(l)
	rf, rok := numericValue(r)
	if lok && rok {
		switch op {
		case sparql.OpEq:
			return lf == rf
		case sparql.OpNe:
			return lf != rf
		case sparql.OpLt:
			return lf < rf
		case sparql.OpLe:
			return lf <= rf
		case sparql.OpGt:
			return lf > rf
		case sparql.OpGe:
			return lf >= rf
		}
	}
	switch op {
	case sparql.OpEq:
		return l == r
	case sparql.OpNe:
		return l != r
	}
	c := compareLexical(l, r)
	switch op {
	case sparql.OpLt:
		return c < 0
	case sparql.OpLe:
		return c <= 0
	case sparql.OpGt:
		return c > 0
	case sparql.OpGe:
		return c >= 0
	}
	return false
}

func numericValue(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal {
		return 0, false
	}
	switch t.Datatype {
	case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
		f, err := strconv.ParseFloat(t.Value, 64)
		return f, err == nil
	}
	return 0, false
}

func compareLexical(l, r rdf.Term) int {
	if l.Value < r.Value {
		return -1
	}
	if l.Value > r.Value {
		return 1
	}
	return 0
}

// An orderKey is one ORDER BY or MIN/MAX cell decoded once: the term, and
// its numeric value when the term is a numeric literal. The zero value is
// the unbound cell.
type orderKey struct {
	term    rdf.Term
	num     float64
	bound   bool
	numeric bool
}

// decodeOrderKey decodes id's term and parses its number, once.
func decodeOrderKey(d *dict.Dict, id dict.ID) orderKey {
	if id == dict.None {
		return orderKey{}
	}
	t := d.Decode(id)
	f, ok := numericValue(t)
	return orderKey{term: t, num: f, bound: true, numeric: ok}
}

// compare is the one definition of value order: numeric literals compare
// numerically, everything else by term (kind, then lexical value). The
// unbound cell sorts before every bound value. Two numbers that compare
// equal — "1" and "1.0", or NaN beside any number — are equal keys, so a
// stable sort keeps them in input order.
func (a *orderKey) compare(b *orderKey) int {
	if !a.bound || !b.bound {
		switch {
		case a.bound == b.bound:
			return 0
		case !a.bound:
			return -1
		default:
			return 1
		}
	}
	if a.numeric && b.numeric {
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		default:
			return 0
		}
	}
	return a.term.Compare(b.term)
}

// compareOrder orders two dictionary IDs as ORDER BY orders their decoded
// keys.
func compareOrder(d *dict.Dict, a, b dict.ID) int {
	ka, kb := decodeOrderKey(d, a), decodeOrderKey(d, b)
	return ka.compare(&kb)
}
