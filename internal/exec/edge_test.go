package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// edgeEngines is every engine configuration the edge cases run through:
// draining, and stopping LIMIT pipelines early.
func edgeEngines() map[string]Options {
	return map[string]Options{
		"serial": {},
		"early":  {EarlyStop: true},
	}
}

func edgeStore(t *testing.T, n int) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	for i := 0; i < n; i++ {
		tr := rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", i%5)),
			P: rdf.NewIRI(fmt.Sprintf("http://x/p%d", i%2)),
			O: rdf.NewInteger(int64(i)),
		}
		if err := b.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestEdgeCases is the table-driven slice/empty/single-triple suite: each
// case pins the expected row count (and sometimes the exact rows) and must
// hold on every engine configuration, with identical rows across engines.
func TestEdgeCases(t *testing.T) {
	empty := edgeStore(t, 0)
	single := edgeStore(t, 1)
	dozen := edgeStore(t, 12)

	cases := []struct {
		name     string
		st       *store.Store
		query    string
		wantRows int
	}{
		{"limit-0", dozen, `SELECT * WHERE { ?s ?p ?o . } LIMIT 0`, 0},
		{"limit-0-ordered", dozen, `SELECT * WHERE { ?s ?p ?o . } ORDER BY ?o LIMIT 0`, 0},
		{"limit-exceeds", dozen, `SELECT * WHERE { ?s ?p ?o . } LIMIT 9999`, 12},
		{"offset-past-end", dozen, `SELECT * WHERE { ?s ?p ?o . } OFFSET 50`, 0},
		{"offset-at-end", dozen, `SELECT * WHERE { ?s ?p ?o . } OFFSET 12`, 0},
		{"offset-mid", dozen, `SELECT * WHERE { ?s ?p ?o . } ORDER BY ?o OFFSET 10`, 2},
		{"offset-plus-limit", dozen, `SELECT * WHERE { ?s ?p ?o . } ORDER BY ?o LIMIT 4 OFFSET 3`, 4},
		{"offset-limit-tail", dozen, `SELECT * WHERE { ?s ?p ?o . } ORDER BY ?o LIMIT 10 OFFSET 10`, 2},
		{"offset-zero", dozen, `SELECT * WHERE { ?s ?p ?o . } OFFSET 0`, 12},
		{"empty-store-scan", empty, `SELECT * WHERE { ?s ?p ?o . }`, 0},
		{"empty-store-join", empty, `SELECT * WHERE { ?s <http://x/p0> ?o . ?o <http://x/p1> ?q . }`, 0},
		{"empty-store-filter", empty, `SELECT * WHERE { ?s ?p ?o . FILTER(?o > 3) }`, 0},
		{"empty-store-limit", empty, `SELECT * WHERE { ?s ?p ?o . } LIMIT 5 OFFSET 1`, 0},
		{"single-triple", single, `SELECT * WHERE { ?s ?p ?o . }`, 1},
		{"single-triple-bound", single, `SELECT ?o WHERE { <http://x/s0> <http://x/p0> ?o . }`, 1},
		{"single-triple-miss", single, `SELECT * WHERE { ?s <http://x/nope> ?o . }`, 0},
		{"single-triple-offset", single, `SELECT * WHERE { ?s ?p ?o . } OFFSET 1`, 0},
		{"single-triple-self-join", single, `SELECT * WHERE { ?s ?p ?o . ?s <http://x/p0> ?o . }`, 1},
		{"missing-constant", dozen, `SELECT * WHERE { ?s <http://x/unseen> ?o . ?s ?p ?q . }`, 0},
		{"repeated-var", dozen, `SELECT * WHERE { ?s ?p ?s . }`, 0},
		{"distinct-preds", dozen, `SELECT DISTINCT ?p WHERE { ?s ?p ?o . }`, 2},
		{"distinct-limit-0", dozen, `SELECT DISTINCT ?p WHERE { ?s ?p ?o . } LIMIT 0`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := sparql.Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var ref string
			var refName string
			for name, opts := range edgeEngines() {
				res, _, err := Query(q, tc.st, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(res.Rows) != tc.wantRows {
					t.Fatalf("%s: %d rows, want %d", name, len(res.Rows), tc.wantRows)
				}
				got := renderRows(tc.st, res)
				if ref == "" {
					ref, refName = got, name
					continue
				}
				if got != ref {
					t.Fatalf("rows diverge between %s and %s:\n%s\nvs\n%s", refName, name, ref, got)
				}
			}
		})
	}
}

// renderRows decodes result rows into one comparable string (rows only —
// EarlyStop configurations legitimately differ in accounting).
func renderRows(st *store.Store, res *Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		for j, id := range row {
			if j > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(st.Dict().Decode(id).String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestEdgeCasesOverlay reruns a representative slice of the table over a
// delta-overlaid store (including a store whose base is empty), so the
// merge-on-read path hits the same corners.
func TestEdgeCasesOverlay(t *testing.T) {
	base := edgeStore(t, 12)
	d, err := base.NewDelta().Apply(
		[]rdf.Triple{
			{S: rdf.NewIRI("http://x/s9"), P: rdf.NewIRI("http://x/p0"), O: rdf.NewInteger(100)},
			{S: rdf.NewIRI("http://x/s9"), P: rdf.NewIRI("http://x/p1"), O: rdf.NewInteger(101)},
		},
		[]rdf.Triple{
			{S: rdf.NewIRI("http://x/s0"), P: rdf.NewIRI("http://x/p0"), O: rdf.NewInteger(0)},
		})
	if err != nil {
		t.Fatal(err)
	}
	ov := d.Overlay() // 13 triples

	emptyBase := edgeStore(t, 0)
	de, err := emptyBase.NewDelta().Apply([]rdf.Triple{
		{S: rdf.NewIRI("http://x/only"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLiteral("v")},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ovEmptyBase := de.Overlay() // 1 triple, all of it delta

	cases := []struct {
		name     string
		st       *store.Store
		query    string
		wantRows int
	}{
		{"overlay-limit-0", ov, `SELECT * WHERE { ?s ?p ?o . } LIMIT 0`, 0},
		{"overlay-offset-past-end", ov, `SELECT * WHERE { ?s ?p ?o . } OFFSET 99`, 0},
		{"overlay-slice", ov, `SELECT * WHERE { ?s ?p ?o . } ORDER BY ?o LIMIT 5 OFFSET 11`, 2},
		{"overlay-deleted-gone", ov, `SELECT * WHERE { ?s <http://x/p0> ?o . FILTER(?o = 0) }`, 0},
		{"overlay-inserted-seen", ov, `SELECT ?o WHERE { <http://x/s9> ?p ?o . }`, 2},
		{"delta-only-store", ovEmptyBase, `SELECT * WHERE { ?s ?p ?o . }`, 1},
		{"delta-only-offset", ovEmptyBase, `SELECT * WHERE { ?s ?p ?o . } OFFSET 1`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := sparql.Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var ref, refName string
			for name, opts := range edgeEngines() {
				res, _, err := Query(q, tc.st, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(res.Rows) != tc.wantRows {
					t.Fatalf("%s: %d rows, want %d", name, len(res.Rows), tc.wantRows)
				}
				got := renderRows(tc.st, res)
				if ref == "" {
					ref, refName = got, name
					continue
				}
				if got != ref {
					t.Fatalf("rows diverge between %s and %s:\n%s\nvs\n%s", refName, name, ref, got)
				}
			}
		})
	}
}
