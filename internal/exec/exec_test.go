package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

const ns = "http://x/"

func iri(n string) rdf.Term { return rdf.NewIRI(ns + n) }

func buildSocialStore(t testing.TB) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	// 3 people, friendships, posts with dates.
	add(iri("alice"), iri("knows"), iri("bob"))
	add(iri("bob"), iri("knows"), iri("carol"))
	add(iri("alice"), iri("knows"), iri("carol"))
	add(iri("alice"), iri("age"), rdf.NewInteger(30))
	add(iri("bob"), iri("age"), rdf.NewInteger(17))
	add(iri("carol"), iri("age"), rdf.NewInteger(45))
	add(iri("post1"), iri("creator"), iri("bob"))
	add(iri("post1"), iri("date"), rdf.NewTypedLiteral("2013-01-05", rdf.XSDDate))
	add(iri("post2"), iri("creator"), iri("carol"))
	add(iri("post2"), iri("date"), rdf.NewTypedLiteral("2013-03-01", rdf.XSDDate))
	add(iri("post3"), iri("creator"), iri("bob"))
	add(iri("post3"), iri("date"), rdf.NewTypedLiteral("2013-02-14", rdf.XSDDate))
	return b.Build()
}

func run(t testing.TB, st *store.Store, src string, opts Options) *Result {
	t.Helper()
	res, _, err := Query(sparql.MustParse(src), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func rowsAsStrings(st *store.Store, res *Result) []string {
	var out []string
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, id := range row {
			parts[i] = st.Dict().Decode(id).String()
		}
		out = append(out, strings.Join(parts, " | "))
	}
	sort.Strings(out)
	return out
}

func TestSingleScan(t *testing.T) {
	st := buildSocialStore(t)
	res := run(t, st, `SELECT * WHERE { ?s <http://x/knows> ?o . }`, Options{})
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Cout != 0 {
		t.Fatalf("single scan Cout = %v, want 0 (scans are free)", res.Cout)
	}
	if res.Scanned != 3 {
		t.Fatalf("scanned = %d", res.Scanned)
	}
}

func TestTwoPatternJoin(t *testing.T) {
	st := buildSocialStore(t)
	src := `SELECT ?f WHERE {
  <http://x/alice> <http://x/knows> ?f .
  ?f <http://x/age> ?a .
  FILTER(?a >= 18)
}`
	res := run(t, st, src, Options{})
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (carol)", len(res.Rows))
	}
	got := st.Dict().Decode(res.Rows[0][0])
	if got != iri("carol") {
		t.Fatalf("got %v, want carol", got)
	}
	if res.Cout < 1 {
		t.Fatalf("join Cout = %v, want >= 1", res.Cout)
	}
}

func TestNewestPostsOfFriends(t *testing.T) {
	// Shape of LDBC Q2: newest posts of a person's friends.
	st := buildSocialStore(t)
	src := `SELECT ?post ?d WHERE {
  <http://x/alice> <http://x/knows> ?f .
  ?post <http://x/creator> ?f .
  ?post <http://x/date> ?d .
} ORDER BY DESC(?d) LIMIT 2`
	res := run(t, st, src, Options{})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	first := st.Dict().Decode(res.Rows[0][0])
	second := st.Dict().Decode(res.Rows[1][0])
	if first != iri("post2") || second != iri("post3") {
		t.Fatalf("order wrong: %v then %v", first, second)
	}
}

func TestDistinctProjection(t *testing.T) {
	st := buildSocialStore(t)
	src := `SELECT DISTINCT ?f WHERE {
  ?p <http://x/knows> ?f .
  ?post <http://x/creator> ?f .
}`
	res := run(t, st, src, Options{})
	// bob is known by alice; carol by bob and alice; both have posts.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), rowsAsStrings(st, res))
	}
}

func TestFilterSemantics(t *testing.T) {
	st := buildSocialStore(t)
	cases := []struct {
		filter string
		want   int
	}{
		{`FILTER(?a > 17)`, 2},
		{`FILTER(?a >= 17)`, 3},
		{`FILTER(?a = 30)`, 1},
		{`FILTER(?a != 30)`, 2},
		{`FILTER(?a < 18 && ?a > 10)`, 1},
		{`FILTER(?s != <http://x/alice>)`, 2},
	}
	for _, c := range cases {
		src := fmt.Sprintf(`SELECT * WHERE { ?s <http://x/age> ?a . %s }`, c.filter)
		res := run(t, st, src, Options{})
		if len(res.Rows) != c.want {
			t.Errorf("%s: rows = %d, want %d", c.filter, len(res.Rows), c.want)
		}
	}
}

func TestDateOrderingLexical(t *testing.T) {
	st := buildSocialStore(t)
	src := `SELECT ?post WHERE {
  ?post <http://x/date> ?d .
  FILTER(?d > "2013-01-31")
}`
	res := run(t, st, src, Options{})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (Feb+Mar posts)", len(res.Rows))
	}
}

func TestRepeatedVariablePattern(t *testing.T) {
	b := store.NewBuilder()
	if err := b.Add(rdf.NewTriple(iri("n1"), iri("p"), iri("n1"))); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(rdf.NewTriple(iri("n1"), iri("p"), iri("n2"))); err != nil {
		t.Fatal(err)
	}
	st := b.Build()
	res := run(t, st, `SELECT * WHERE { ?x <http://x/p> ?x . }`, Options{})
	if len(res.Rows) != 1 {
		t.Fatalf("self-loop rows = %d, want 1", len(res.Rows))
	}
}

func TestErrorPaths(t *testing.T) {
	st := buildSocialStore(t)
	bad := []string{
		`SELECT ?zzz WHERE { ?s <http://x/age> ?a . }`,                // project unbound
		`SELECT * WHERE { ?s <http://x/age> ?a . FILTER(?nope > 1) }`, // filter unbound
		`SELECT * WHERE { ?s <http://x/age> ?a . } ORDER BY ?nope`,    // order unbound
	}
	for _, src := range bad {
		if _, _, err := Query(sparql.MustParse(src), st, Options{}); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
	// Unbound parameter at compile time.
	q := sparql.MustParse(`SELECT * WHERE { ?s <http://x/age> %a . }`)
	if _, _, err := Query(q, st, Options{}); err == nil {
		t.Error("expected error for unbound parameter")
	}
}

func TestCoutCountsEveryJoin(t *testing.T) {
	st := buildSocialStore(t)
	src := `SELECT * WHERE {
  ?p <http://x/knows> ?f .
  ?post <http://x/creator> ?f .
  ?post <http://x/date> ?d .
}`
	res := run(t, st, src, Options{})
	// Two joins: their outputs sum to Cout. Final result has 5 rows
	// (alice-bob-post1/3, alice-carol-post2, bob-carol-post2, alice...).
	if res.Cout < float64(len(res.Rows)) {
		t.Fatalf("Cout %v < final result size %d", res.Cout, len(res.Rows))
	}
}

// naiveEval computes the BGP result by brute-force binding enumeration,
// used as the correctness oracle.
func naiveEval(st *store.Store, q *sparql.Query) map[string]bool {
	all, _ := st.Match(store.Pattern{})
	d := st.Dict()
	var results []map[sparql.Var]dict.ID
	var recurse func(i int, binding map[sparql.Var]dict.ID)
	match := func(n sparql.Node, id dict.ID, binding map[sparql.Var]dict.ID) (map[sparql.Var]dict.ID, bool) {
		switch n.Kind {
		case sparql.NodeTerm:
			tid, ok := d.Lookup(n.Term)
			if !ok || tid != id {
				return binding, false
			}
			return binding, true
		case sparql.NodeVar:
			if prev, ok := binding[n.Var]; ok {
				return binding, prev == id
			}
			nb := make(map[sparql.Var]dict.ID, len(binding)+1)
			for k, v := range binding {
				nb[k] = v
			}
			nb[n.Var] = id
			return nb, true
		}
		return binding, false
	}
	recurse = func(i int, binding map[sparql.Var]dict.ID) {
		if i == len(q.Where) {
			results = append(results, binding)
			return
		}
		tp := q.Where[i]
		for _, tr := range all {
			b1, ok := match(tp.S, tr.S, binding)
			if !ok {
				continue
			}
			b2, ok := match(tp.P, tr.P, b1)
			if !ok {
				continue
			}
			b3, ok := match(tp.O, tr.O, b2)
			if !ok {
				continue
			}
			recurse(i+1, b3)
		}
	}
	recurse(0, map[sparql.Var]dict.ID{})
	out := map[string]bool{}
	vars := q.Vars()
	for _, b := range results {
		var sb strings.Builder
		for _, v := range vars {
			fmt.Fprintf(&sb, "%d|", b[v])
		}
		out[sb.String()] = true
	}
	return out
}

// TestAgainstNaiveOracle cross-checks the executor against brute force on
// random star/chain/cycle queries over random data.
func TestAgainstNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := store.NewBuilder()
	for i := 0; i < 400; i++ {
		tr := rdf.NewTriple(
			iri(fmt.Sprintf("s%d", rng.Intn(30))),
			iri(fmt.Sprintf("p%d", rng.Intn(4))),
			iri(fmt.Sprintf("s%d", rng.Intn(30))),
		)
		if err := b.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Build()
	queries := []string{
		`SELECT * WHERE { ?a <http://x/p0> ?b . ?b <http://x/p1> ?c . }`,
		`SELECT * WHERE { ?a <http://x/p0> ?b . ?a <http://x/p1> ?c . ?a <http://x/p2> ?d . }`,
		`SELECT * WHERE { ?a <http://x/p0> ?b . ?b <http://x/p1> ?c . ?c <http://x/p2> ?a . }`,
		`SELECT * WHERE { ?a ?p <http://x/s5> . ?a <http://x/p1> ?b . }`,
		`SELECT * WHERE { ?a <http://x/p0> ?a . }`,
	}
	for _, src := range queries {
		q := sparql.MustParse(src)
		want := naiveEval(st, q)
		for _, opts := range []Options{{}, {Parallelism: 4, MorselSize: 8}} {
			res, _, err := Query(q, st, opts)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			got := map[string]bool{}
			varIdx := map[sparql.Var]int{}
			for i, v := range res.Vars {
				varIdx[v] = i
			}
			for _, row := range res.Rows {
				var sb strings.Builder
				for _, v := range q.Vars() {
					fmt.Fprintf(&sb, "%d|", row[varIdx[v]])
				}
				got[sb.String()] = true
			}
			if len(got) != len(want) {
				t.Fatalf("%s (parallelism %d): got %d distinct rows, want %d", src, opts.Parallelism, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("%s (parallelism %d): missing row %s", src, opts.Parallelism, k)
				}
			}
		}
	}
}

func TestGreedyPipelineAgreesWithDP(t *testing.T) {
	st := buildSocialStore(t)
	src := `SELECT ?f ?post WHERE {
  ?p <http://x/knows> ?f .
  ?post <http://x/creator> ?f .
  ?post <http://x/date> ?d .
}`
	q := sparql.MustParse(src)
	dp, _, err := Query(q, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gr, gplan, err := QueryGreedy(q, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gplan.Method != "greedy" {
		t.Fatalf("method = %s", gplan.Method)
	}
	if len(dp.Rows) != len(gr.Rows) {
		t.Fatalf("dp %d rows, greedy %d rows", len(dp.Rows), len(gr.Rows))
	}
}

func TestIndexJoinRepeatedVarInLeaf(t *testing.T) {
	// Self-loop pattern joined via INL: ?x knows ?y . ?y p ?y .
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	add(iri("a"), iri("knows"), iri("b"))
	add(iri("a"), iri("knows"), iri("c"))
	add(iri("b"), iri("p"), iri("b")) // self loop
	add(iri("c"), iri("p"), iri("d")) // not a self loop
	st := b.Build()
	res := run(t, st, `SELECT * WHERE { ?x <http://x/knows> ?y . ?y <http://x/p> ?y . }`, Options{})
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (only b self-loops)", len(res.Rows))
	}
}

func TestIndexJoinConflictingConstant(t *testing.T) {
	// The leaf has a constant where the outer row binds the same position
	// via a shared var appearing twice: ?x knows ?x . <a> knows ?x — the
	// second pattern constrains ?x at object with subject constant.
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	add(iri("a"), iri("knows"), iri("a"))
	add(iri("a"), iri("knows"), iri("b"))
	add(iri("b"), iri("knows"), iri("b"))
	st := b.Build()
	res := run(t, st, `SELECT * WHERE { ?x <http://x/knows> ?x . <http://x/a> <http://x/knows> ?x . }`, Options{})
	// ?x in {a, b} self-loops; a knows {a, b} → both qualify.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), rowsAsStrings(st, res))
	}
}

func TestCrossProductThroughLeafJoin(t *testing.T) {
	// Join where the leaf shares no variable with the outer: falls back to
	// a cross product under the hood.
	st := buildSocialStore(t)
	res := run(t, st, `SELECT * WHERE {
  <http://x/alice> <http://x/age> ?a .
  <http://x/bob> <http://x/age> ?b .
}`, Options{})
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestMissingTermPatternYieldsEmpty(t *testing.T) {
	st := buildSocialStore(t)
	res := run(t, st, `SELECT * WHERE {
  ?p <http://x/knows> ?f .
  ?f <http://x/nonexistent> ?z .
}`, Options{})
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(res.Rows))
	}
}
