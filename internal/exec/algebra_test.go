package exec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/store"
)

// decodeRow renders one result row, with unbound columns as UNDEF.
func decodeRow(st *store.Store, row []dict.ID) string {
	parts := make([]string, len(row))
	for i, id := range row {
		if t, ok := st.Dict().TryDecode(id); ok {
			parts[i] = t.String()
		} else {
			parts[i] = "UNDEF"
		}
	}
	return strings.Join(parts, " | ")
}

func decodeRows(st *store.Store, res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = decodeRow(st, row)
	}
	return out
}

var algebraQueries = []struct {
	name string
	src  string
}{
	{"optional", `SELECT * WHERE {
		?p <http://x/knows> ?q .
		OPTIONAL { ?post <http://x/creator> ?q . ?post <http://x/date> ?d . }
	} ORDER BY ?p ?q ?post`},
	{"optional filter inside", `SELECT * WHERE {
		?p <http://x/age> ?a .
		OPTIONAL { ?p <http://x/knows> ?q . }
		FILTER(?a > 20)
	} ORDER BY ?p ?q`},
	{"union", `SELECT * WHERE {
		{ ?s <http://x/knows> ?o . } UNION { ?s <http://x/creator> ?c . }
	} ORDER BY ?s ?o ?c`},
	{"union joined with bgp", `SELECT ?p ?x WHERE {
		?p <http://x/age> ?a .
		{ ?p <http://x/knows> ?x . } UNION { ?x <http://x/creator> ?p . }
	} ORDER BY ?p ?x`},
	{"group count", `SELECT ?q (COUNT(*) AS ?n) WHERE {
		?p <http://x/knows> ?q .
	} GROUP BY ?q ORDER BY ?q`},
	{"group agg having", `SELECT ?c (COUNT(*) AS ?n) (MIN(?d) AS ?first) WHERE {
		?post <http://x/creator> ?c .
		?post <http://x/date> ?d .
	} GROUP BY ?c HAVING(?n >= 2) ORDER BY ?c`},
	{"global aggregates", `SELECT (COUNT(*) AS ?n) (SUM(?a) AS ?total) (AVG(?a) AS ?avg) (MAX(?a) AS ?top) WHERE {
		?p <http://x/age> ?a .
	}`},
	{"count distinct", `SELECT (COUNT(DISTINCT ?q) AS ?n) WHERE {
		?p <http://x/knows> ?q .
	}`},
	{"count over optional var", `SELECT ?q (COUNT(?post) AS ?n) WHERE {
		?p <http://x/knows> ?q .
		OPTIONAL { ?post <http://x/creator> ?q . }
	} GROUP BY ?q ORDER BY ?q`},
	{"empty group result", `SELECT (COUNT(*) AS ?n) (SUM(?a) AS ?s) (MIN(?a) AS ?m) WHERE {
		?p <http://x/nosuch> ?a .
	}`},
}

// TestAlgebraStreamingColumnarIdentical: for every algebra construct the
// engine reproduces the frozen streaming/columnar rows and accounting.
func TestAlgebraStreamingColumnarIdentical(t *testing.T) {
	st := buildSocialStore(t)
	for _, q := range algebraQueries {
		t.Run(q.name, func(t *testing.T) {
			assertFrozen(t, "algebra/"+q.name, st, run(t, st, q.src, Options{}))
		})
	}
}

func TestOptionalSemantics(t *testing.T) {
	st := buildSocialStore(t)
	// bob knows carol; carol created post2; alice knows bob, and bob
	// created post1 and post3. Every knows edge must survive.
	res := run(t, st, `SELECT ?p ?q ?post WHERE {
		?p <http://x/knows> ?q .
		OPTIONAL { ?post <http://x/creator> ?q . }
	} ORDER BY ?p ?q ?post`, Options{})
	got := decodeRows(st, res)
	want := []string{
		"<http://x/alice> | <http://x/bob> | <http://x/post1>",
		"<http://x/alice> | <http://x/bob> | <http://x/post3>",
		"<http://x/alice> | <http://x/carol> | <http://x/post2>",
		"<http://x/bob> | <http://x/carol> | <http://x/post2>",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	// An OPTIONAL that never matches pads with UNDEF and keeps the row.
	res = run(t, st, `SELECT ?p ?x WHERE {
		?p <http://x/age> ?a .
		OPTIONAL { ?p <http://x/nosuch> ?x . }
	} ORDER BY ?p`, Options{})
	got = decodeRows(st, res)
	want = []string{
		"<http://x/alice> | UNDEF",
		"<http://x/bob> | UNDEF",
		"<http://x/carol> | UNDEF",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unmatched optional rows = %v, want %v", got, want)
	}
}

func TestUnionSemantics(t *testing.T) {
	st := buildSocialStore(t)
	res := run(t, st, `SELECT ?s WHERE {
		{ ?s <http://x/knows> <http://x/carol> . } UNION { ?s <http://x/age> ?a . FILTER(?a > 40) }
	} ORDER BY ?s`, Options{})
	got := decodeRows(st, res)
	// alice and bob know carol; carol is 45. Union keeps duplicates.
	want := []string{"<http://x/alice>", "<http://x/bob>", "<http://x/carol>"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestAggregateSemantics(t *testing.T) {
	st := buildSocialStore(t)
	res := run(t, st, `SELECT ?c (COUNT(*) AS ?n) WHERE {
		?post <http://x/creator> ?c .
	} GROUP BY ?c ORDER BY DESC(?n)`, Options{})
	got := decodeRows(st, res)
	want := []string{
		`<http://x/bob> | "2"^^<http://www.w3.org/2001/XMLSchema#integer>`,
		`<http://x/carol> | "1"^^<http://www.w3.org/2001/XMLSchema#integer>`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	// Global aggregation over empty input: one row, COUNT 0, MIN unbound.
	res = run(t, st, `SELECT (COUNT(*) AS ?n) (MIN(?a) AS ?m) WHERE {
		?p <http://x/nosuch> ?a .
	}`, Options{})
	got = decodeRows(st, res)
	want = []string{`"0"^^<http://www.w3.org/2001/XMLSchema#integer> | UNDEF`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty aggregation rows = %v, want %v", got, want)
	}
}
