// Compositional-algebra walkthrough: OPTIONAL, UNION and aggregation over
// a small social graph, and a pattern-driven DELETE/INSERT WHERE update —
// the algebra layer end to end.
package main

import (
	"fmt"
	"log"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

func run(text string, st *store.Store, opts exec.Options) *exec.Result {
	q, err := sparql.Parse(text)
	if err != nil {
		log.Fatal(err)
	}
	c, err := plan.Compile(q, st)
	if err != nil {
		log.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		log.Fatal(err)
	}
	res, err := exec.Run(c, p, st, opts)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func printRows(st *store.Store, res *exec.Result) {
	d := st.Dict()
	for _, row := range res.Rows {
		for j, id := range row {
			if j > 0 {
				fmt.Print("  ")
			}
			if t, ok := d.TryDecode(id); ok {
				fmt.Print(t.String())
			} else {
				fmt.Print("UNDEF") // the unbound sentinel OPTIONAL/UNION leave
			}
		}
		fmt.Println()
	}
}

func main() {
	// A tiny social graph: carol has no age, post authorship is sparse.
	b := store.NewBuilder()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	add := func(s, p string, o rdf.Term) {
		if err := b.Add(rdf.Triple{S: iri(s), P: iri(p), O: o}); err != nil {
			log.Fatal(err)
		}
	}
	add("alice", "knows", iri("bob"))
	add("alice", "knows", iri("carol"))
	add("bob", "knows", iri("carol"))
	add("alice", "age", rdf.NewInteger(30))
	add("bob", "age", rdf.NewInteger(17))
	add("post1", "by", iri("bob"))
	add("post2", "by", iri("bob"))
	add("post3", "by", iri("carol"))
	st := b.Build()

	// --- OPTIONAL: left join, unmatched rows survive with UNDEF -------
	optional := `SELECT ?p ?q ?a WHERE {
	  ?p <http://ex/knows> ?q .
	  OPTIONAL { ?q <http://ex/age> ?a . }
	} ORDER BY ?p ?q`
	fmt.Println("OPTIONAL (carol has no age):")
	printRows(st, run(optional, st, exec.Options{}))

	// --- UNION: ordered branch concatenation --------------------------
	union := `SELECT ?person ?who WHERE {
	  { ?person <http://ex/knows> ?who . } UNION { ?who <http://ex/knows> ?person . }
	} ORDER BY ?person ?who`
	fmt.Println("\nUNION (both directions of knows):")
	printRows(st, run(union, st, exec.Options{}))

	// --- Aggregation: GROUP BY + COUNT + HAVING -----------------------
	agg := `SELECT ?who (COUNT(*) AS ?n) WHERE {
	  ?post <http://ex/by> ?who .
	} GROUP BY ?who HAVING(?n >= 2) ORDER BY ?who`
	fmt.Println("\nGROUP BY post author, HAVING n >= 2:")
	printRows(st, run(agg, st, exec.Options{}))

	// --- Pattern-driven update: DELETE/INSERT WHERE -------------------
	// Retire the "knows" edges of minors and mark them instead; the WHERE
	// block is executed as an ordinary query against the pre-op snapshot.
	u, err := sparql.ParseUpdate(`
	  DELETE { ?p <http://ex/knows> ?q . }
	  INSERT { ?p <http://ex/guarded> ?q . }
	  WHERE  { ?p <http://ex/knows> ?q . ?p <http://ex/age> ?a . FILTER(?a < 18) }`)
	if err != nil {
		log.Fatal(err)
	}
	d, err := exec.ApplyUpdate(st, u)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDELETE/INSERT WHERE: +%d -%d triples\n", d.InsertCount(), d.DeleteCount())
	after := d.Overlay()
	fmt.Println("knows after the update:")
	printRows(after, run(`SELECT ?s ?o WHERE { ?s <http://ex/knows> ?o . } ORDER BY ?s ?o`, after, exec.Options{}))
	fmt.Println("guarded after the update:")
	printRows(after, run(`SELECT ?s ?o WHERE { ?s <http://ex/guarded> ?o . } ORDER BY ?s ?o`, after, exec.Options{}))
}
