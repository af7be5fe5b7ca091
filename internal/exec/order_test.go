package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// refCompareOrder is the ORDER BY comparator from before keys were decoded
// once: it decodes both terms and parses both numbers on every call. It is
// the reference the decoded-key sort and compareOrder must reproduce.
func refCompareOrder(d *dict.Dict, a, b dict.ID) int {
	if a == dict.None || b == dict.None {
		switch {
		case a == b:
			return 0
		case a == dict.None:
			return -1
		default:
			return 1
		}
	}
	ta, tb := d.Decode(a), d.Decode(b)
	fa, oka := numericValue(ta)
	fb, okb := numericValue(tb)
	if oka && okb {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return ta.Compare(tb)
}

// refSort returns the row permutation the reference comparator's stable
// sort gives cols under keys.
func refSort(d *dict.Dict, cols [][]dict.ID, keys []sparql.OrderKey) []int32 {
	perm := make([]int32, len(cols[0]))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		a, b := perm[i], perm[j]
		for x, col := range cols {
			if col[a] == col[b] {
				continue
			}
			c := refCompareOrder(d, col[a], col[b])
			if c == 0 {
				continue
			}
			if keys[x].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return perm
}

// TestOrderByDecodedKeys compares the decoded-key sort with the reference
// comparator's over value mixes where the order is subtle: numbers of
// mixed datatypes, equal numbers with different lexical forms (which must
// keep their input order), NaN, IRIs beside literals, unbound cells,
// duplicate IDs, and two keys in ASC and DESC. It also checks that
// compareOrder, which MIN and MAX use, agrees with the reference on every
// pair of values.
func TestOrderByDecodedKeys(t *testing.T) {
	b := store.NewBuilder()
	d := b.Dict()
	lit := func(v, dt string) dict.ID { return d.Encode(rdf.NewTypedLiteral(v, dt)) }
	var (
		int1    = lit("1", rdf.XSDInteger)
		dec1    = lit("1.0", rdf.XSDDecimal)
		dbl1    = lit("1e0", rdf.XSDDouble)
		int10   = lit("10", rdf.XSDInteger)
		int2    = lit("2", rdf.XSDInteger)
		dec25   = lit("2.5", rdf.XSDDecimal)
		neg     = lit("-3", rdf.XSDInteger)
		nan     = lit("NaN", rdf.XSDDouble)
		badNum  = lit("abc", rdf.XSDInteger) // a numeric datatype that does not parse
		str1    = d.Encode(rdf.NewLiteral("1"))
		strB    = d.Encode(rdf.NewLiteral("b"))
		strA    = d.Encode(rdf.NewLangLiteral("a", "en"))
		date    = lit("2024-01-02", rdf.XSDDate)
		iriA    = d.Encode(rdf.NewIRI("http://x/a"))
		iriZ    = d.Encode(rdf.NewIRI("http://x/z"))
		blank   = d.Encode(rdf.NewBlank("b1"))
		unbound = dict.None
	)
	st := b.Build()
	all := []dict.ID{int1, dec1, dbl1, int10, int2, dec25, neg, nan, badNum, str1, strB, strA, date, iriA, iriZ, blank, unbound}
	asc := []sparql.OrderKey{{Var: "a"}}
	desc := []sparql.OrderKey{{Var: "a", Desc: true}}
	cases := []struct {
		name string
		cols [][]dict.ID
		keys []sparql.OrderKey
	}{
		{"mixed numeric datatypes", [][]dict.ID{{int10, dec25, int2, neg, dbl1, int10}}, asc},
		{"equal numbers keep input order", [][]dict.ID{{dec1, int1, dbl1, int2, int1, dec1}}, asc},
		{"equal numbers keep input order desc", [][]dict.ID{{int1, dbl1, dec1, neg, dec1}}, desc},
		{"NaN", [][]dict.ID{{int2, nan, int1, nan, neg, int10}}, asc},
		{"IRIs beside literals", [][]dict.ID{{strB, iriZ, int2, iriA, str1, blank, date, strA, badNum}}, asc},
		{"unbound cells", [][]dict.ID{{int2, unbound, iriA, unbound, int1}}, desc},
		{"duplicate IDs", [][]dict.ID{{iriA, int1, iriA, int1, iriA, strB, strB}}, asc},
		{"two keys asc desc", [][]dict.ID{
			{int1, int2, dec1, int1, unbound, int2, iriA},
			{strB, iriA, iriZ, strA, int1, unbound, iriA},
		}, []sparql.OrderKey{{Var: "a"}, {Var: "b", Desc: true}}},
		{"two keys desc asc", [][]dict.ID{
			{iriA, nan, int1, iriA, dec1, int1},
			{int10, int2, unbound, dec25, int2, int2},
		}, []sparql.OrderKey{{Var: "a", Desc: true}, {Var: "b"}}},
		{"every value", [][]dict.ID{append(slices.Clone(all), all...)}, asc},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vars := make([]sparql.Var, len(c.cols))
			for i := range vars {
				vars[i] = sparql.Var(string(rune('a' + i)))
			}
			ex := newExecutor(st, context.Background(), Options{})
			defer ex.release()
			rel := &colRelation{vars: vars, n: len(c.cols[0])}
			for _, col := range c.cols {
				rel.cols = append(rel.cols, slices.Clone(col))
			}
			op := &orderOp{ex: ex, keys: c.keys}
			if err := op.sortRel(rel); err != nil {
				t.Fatal(err)
			}
			perm := refSort(d, c.cols, c.keys)
			for j, col := range c.cols {
				for i, p := range perm {
					if rel.cols[j][i] != col[p] {
						t.Fatalf("row %d key %d: got %s, reference %s", i, j, termOf(d, rel.cols[j][i]), termOf(d, col[p]))
					}
				}
			}
		})
	}
	for _, a := range all {
		for _, b := range all {
			if got, want := compareOrder(d, a, b), refCompareOrder(d, a, b); got != want {
				t.Errorf("compareOrder(%s, %s) = %d, reference %d", termOf(d, a), termOf(d, b), got, want)
			}
		}
	}
}

// termOf renders an ID for a failure message.
func termOf(d *dict.Dict, id dict.ID) string {
	if id == dict.None {
		return "UNBOUND"
	}
	return fmt.Sprint(d.Decode(id))
}
