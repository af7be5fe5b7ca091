package exec

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// FuzzPlanRun checks that the plan rejects whatever the executor cannot
// build: every query plan.Optimize accepts runs to completion, without an
// error or a panic, over a fixed store of a handful of triples. Templates
// and queries of more than five patterns are skipped. It is seeded from
// the parser's fuzz corpus. Rows are not compared against an oracle here;
// internal/difftest does that for generated queries.
func FuzzPlanRun(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "sparql", "testdata", "fuzz", "FuzzParseQuery", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		header, body, _ := strings.Cut(string(data), "\n")
		arg, ok := strings.CutPrefix(strings.TrimSpace(body), "string(")
		src, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if header != "go test fuzz v1" || !ok || err != nil {
			f.Fatalf("%s: not a one-string fuzz corpus file", name)
		}
		f.Add(src)
	}
	// The parser's corpus holds few algebra queries; these add one of
	// each construct, and one naming an unbound variable.
	for _, src := range []string{
		`SELECT * WHERE { ?s <http://x/p> ?o . OPTIONAL { ?o <http://x/q> ?v . FILTER(?v > 3) } }`,
		`SELECT * WHERE { { ?s <http://x/p> ?o . } UNION { ?s <http://x/q> ?o . } } ORDER BY ?o`,
		`SELECT ?s (COUNT(*) AS ?n) (SUM(?v) AS ?t) WHERE { ?s <http://x/q> ?v . } GROUP BY ?s HAVING(?n >= 1) ORDER BY ?s`,
		`SELECT ?x WHERE { ?s ?p ?o . }`,
	} {
		f.Add(src)
	}
	b := store.NewBuilder()
	x := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	for _, t := range []rdf.Triple{
		rdf.NewTriple(x("a"), x("p"), x("b")),
		rdf.NewTriple(x("b"), x("p"), x("c")),
		rdf.NewTriple(x("c"), x("p"), x("a")),
		rdf.NewTriple(x("b"), x("q"), rdf.NewInteger(5)),
		rdf.NewTriple(x("c"), x("q"), rdf.NewInteger(2)),
		rdf.NewTriple(x("a"), x("r"), rdf.NewLiteral("v")),
		rdf.NewTriple(x("a"), rdf.NewIRI(rdf.RDFType), x("T")),
	} {
		if err := b.Add(t); err != nil {
			f.Fatal(err)
		}
	}
	st := b.Build()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.Parse(src)
		if err != nil || len(q.Params()) > 0 {
			return
		}
		c, err := plan.Compile(q, st)
		if err != nil || len(c.Patterns) > 5 {
			return
		}
		p, err := plan.Optimize(c, plan.NewEstimator(st))
		if err != nil {
			return
		}
		if _, err := Run(c, p, st, Options{}); err != nil {
			t.Fatalf("Optimize accepted a query the executor fails on: %v\nquery: %q\nplan:\n%s", err, src, p.Phys)
		}
	})
}
