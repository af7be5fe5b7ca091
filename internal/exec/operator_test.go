package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// assertResultsIdentical fails unless the two results agree bit-for-bit on
// schema, rows (including order) and the full accounting.
func assertResultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Vars) != len(b.Vars) {
		t.Fatalf("%s: vars %v vs %v", label, a.Vars, b.Vars)
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] {
			t.Fatalf("%s: vars %v vs %v", label, a.Vars, b.Vars)
		}
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: %d rows vs %d rows", label, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			t.Fatalf("%s: row %d width differs", label, i)
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("%s: row %d col %d: %d vs %d", label, i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	if a.Cout != b.Cout {
		t.Fatalf("%s: Cout %v vs %v", label, a.Cout, b.Cout)
	}
	if a.Work != b.Work {
		t.Fatalf("%s: Work %v vs %v", label, a.Work, b.Work)
	}
	if a.Scanned != b.Scanned {
		t.Fatalf("%s: Scanned %d vs %d", label, a.Scanned, b.Scanned)
	}
}

// equivalenceQueries covers every operator: scans, INL chains and stars,
// leaf-leaf probes, cross products, repeated variables, missing patterns,
// filters (single- and multi-variable), ORDER BY, projection, DISTINCT and
// LIMIT.
var equivalenceQueries = []string{
	`SELECT * WHERE { ?s <http://x/knows> ?o . }`,
	`SELECT * WHERE { ?s ?p ?o . }`,
	`SELECT ?f WHERE { <http://x/alice> <http://x/knows> ?f . ?f <http://x/age> ?a . FILTER(?a >= 18) }`,
	`SELECT ?post ?d WHERE {
  <http://x/alice> <http://x/knows> ?f .
  ?post <http://x/creator> ?f .
  ?post <http://x/date> ?d .
} ORDER BY DESC(?d) LIMIT 2`,
	`SELECT DISTINCT ?f WHERE { ?p <http://x/knows> ?f . ?post <http://x/creator> ?f . }`,
	`SELECT * WHERE { ?s <http://x/age> ?a . FILTER(?a > 17) FILTER(?a < 40) }`,
	`SELECT * WHERE { ?x <http://x/p> ?x . }`,
	`SELECT * WHERE { <http://x/alice> <http://x/age> ?a . <http://x/bob> <http://x/age> ?b . }`,
	`SELECT * WHERE { <http://x/alice> <http://x/age> ?a . <http://x/bob> <http://x/age> ?b . FILTER(?a > ?b) }`,
	`SELECT * WHERE { ?p <http://x/knows> ?f . ?f <http://x/nonexistent> ?z . }`,
	`SELECT ?p WHERE { ?p <http://x/knows> ?f . ?p <http://x/age> ?a . ?post <http://x/creator> ?f . } ORDER BY ?p`,
	`SELECT * WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c . }`,
	`SELECT DISTINCT ?f WHERE { ?p <http://x/knows> ?f . } ORDER BY ?f LIMIT 2`,
}

func buildStreamStore(t testing.TB) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
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
	add(iri("n1"), iri("p"), iri("n1"))
	add(iri("n1"), iri("p"), iri("n2"))
	return b.Build()
}

// frozen is one query's rows and accounting as the streaming and
// materializing engines computed them — in agreement with each other and
// with the columnar engine — before the two were deleted
// (testdata/frozen.json). The engine must keep reproducing them.
type frozen struct {
	Rows     int     `json:"rows"`
	RowsHash string  `json:"rows_hash"`
	Cout     float64 `json:"cout"`
	Work     float64 `json:"work"`
	Scanned  int     `json:"scanned"`
}

// assertFrozen fails unless res reproduces the frozen entry key: row count,
// decoded rows in order (hashed) and the Cout/Work/Scanned accounting.
func assertFrozen(t *testing.T, key string, st *store.Store, res *Result) {
	t.Helper()
	data, err := os.ReadFile("testdata/frozen.json")
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]frozen
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatal(err)
	}
	want, ok := all[key]
	if !ok {
		t.Fatalf("%s: no frozen entry", key)
	}
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(decodeRow(st, row) + "\n")
	}
	sum := sha256.Sum256([]byte(sb.String()))
	got := frozen{len(res.Rows), hex.EncodeToString(sum[:8]), res.Cout, res.Work, res.Scanned}
	if got != want {
		t.Fatalf("%s: got %+v, frozen %+v", key, got, want)
	}
}

// TestStreamingMatchesMaterializing: over the equivalence corpus the engine
// reproduces the frozen streaming/materializing rows and accounting. The
// "/hash" suffix of the keys names the interior-join algorithm the entries
// were frozen with, the only one the engine has.
func TestStreamingMatchesMaterializing(t *testing.T) {
	st := buildStreamStore(t)
	for i, src := range equivalenceQueries {
		assertFrozen(t, fmt.Sprintf("equivalence/%d/hash", i), st, run(t, st, src, Options{}))
	}
}

// TestStreamingMatchesMaterializingLarge is the frozen comparison over
// multi-batch pipelines: the store holds far more than one batch of
// triples.
func TestStreamingMatchesMaterializingLarge(t *testing.T) {
	st := buildLargeStore(t)
	for i, src := range largeQueries {
		assertFrozen(t, fmt.Sprintf("large/%d/hash", i), st, run(t, st, src, Options{}))
	}
}

// buildLargeStore holds 6000 random triples over 300 nodes and three
// predicates — far more than one batch per pattern.
func buildLargeStore(t testing.TB) *store.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	b := store.NewBuilder()
	for i := 0; i < 6000; i++ {
		tr := rdf.NewTriple(
			iri(fmt.Sprintf("s%d", rng.Intn(300))),
			iri(fmt.Sprintf("p%d", rng.Intn(3))),
			iri(fmt.Sprintf("s%d", rng.Intn(300))),
		)
		if err := b.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

var largeQueries = []string{
	`SELECT * WHERE { ?a <http://x/p0> ?b . }`,
	`SELECT * WHERE { ?a <http://x/p0> ?b . ?b <http://x/p1> ?c . }`,
	`SELECT * WHERE { ?a <http://x/p0> ?b . ?b <http://x/p1> ?c . ?c <http://x/p2> ?d . }`,
	`SELECT DISTINCT ?b WHERE { ?a <http://x/p0> ?b . ?b <http://x/p1> ?c . } LIMIT 40`,
	`SELECT * WHERE { ?a <http://x/p0> ?a . ?a <http://x/p1> ?b . }`,
}

// TestStreamingErrorPaths: malformed queries fail.
func TestStreamingErrorPaths(t *testing.T) {
	st := buildStreamStore(t)
	bad := []string{
		`SELECT ?zzz WHERE { ?s <http://x/age> ?a . }`,
		`SELECT * WHERE { ?s <http://x/age> ?a . FILTER(?nope > 1) }`,
		`SELECT * WHERE { ?s <http://x/age> ?a . } ORDER BY ?nope`,
	}
	for _, src := range bad {
		if _, _, err := Query(sparql.MustParse(src), st, Options{}); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// TestLimitStillDrains: without EarlyStop, LIMIT must not terminate
// upstream operators early — the accounting (Cout, Work, Scanned) must
// match the unlimited execution exactly.
func TestLimitStillDrains(t *testing.T) {
	st := buildStreamStore(t)
	base := `SELECT ?post WHERE { ?p <http://x/knows> ?f . ?post <http://x/creator> ?f . }`
	limited := base + ` LIMIT 1`
	full := run(t, st, base, Options{})
	lim := run(t, st, limited, Options{})
	if len(lim.Rows) != 1 {
		t.Fatalf("limited rows = %d", len(lim.Rows))
	}
	if lim.Cout != full.Cout || lim.Scanned != full.Scanned || lim.Work != full.Work {
		t.Fatalf("limit changed accounting: cout %v/%v scanned %d/%d work %v/%v",
			lim.Cout, full.Cout, lim.Scanned, full.Scanned, lim.Work, full.Work)
	}
}

// --- Operator unit tests -----------------------------------------------------

func compilePattern(t *testing.T, st *store.Store, src string) (*plan.Compiled, *plan.CompiledPattern) {
	t.Helper()
	c, err := plan.Compile(sparql.MustParse(src), st)
	if err != nil {
		t.Fatal(err)
	}
	return c, &c.Patterns[0]
}

// drainOp pulls op to exhaustion, returning its live rows.
func drainOp(t *testing.T, op operator) [][]dict.ID {
	t.Helper()
	var out [][]dict.ID
	for {
		b, err := op.next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		if b.live() == 0 {
			t.Fatal("operator emitted an empty batch")
		}
		for i := 0; i < b.live(); i++ {
			r := i
			if b.sel != nil {
				r = int(b.sel[i])
			}
			row := make([]dict.ID, len(b.cols))
			for j, col := range b.cols {
				row[j] = col[r]
			}
			out = append(out, row)
		}
	}
}

func TestScanOpUnit(t *testing.T) {
	st := buildStreamStore(t)
	ex := &executor{st: st}
	_, cp := compilePattern(t, st, `SELECT * WHERE { ?s <http://x/knows> ?o . }`)
	op := newScanOp(ex, cp)
	if len(op.vars()) != 2 {
		t.Fatalf("vars = %v", op.vars())
	}
	rows := drainOp(t, op)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if ex.scan != 3 || ex.work != 3 {
		t.Fatalf("scan=%d work=%v", ex.scan, ex.work)
	}
	// Exhausted cursor keeps returning nil.
	if b, _ := op.next(); b != nil {
		t.Fatal("next after exhaustion returned a batch")
	}
}

func TestScanOpRepeatedVar(t *testing.T) {
	st := buildStreamStore(t)
	ex := &executor{st: st}
	_, cp := compilePattern(t, st, `SELECT * WHERE { ?x <http://x/p> ?x . }`)
	op := newScanOp(ex, cp)
	rows := drainOp(t, op)
	if len(rows) != 1 {
		t.Fatalf("self-loop rows = %d, want 1", len(rows))
	}
	if ex.scan != 2 {
		t.Fatalf("scanned = %d, want 2 (both p-triples read)", ex.scan)
	}
}

func TestScanOpMissing(t *testing.T) {
	st := buildStreamStore(t)
	ex := &executor{st: st}
	_, cp := compilePattern(t, st, `SELECT * WHERE { ?s <http://x/nonexistent> ?o . }`)
	if !cp.Missing {
		t.Fatal("pattern should be missing")
	}
	op := newScanOp(ex, cp)
	if rows := drainOp(t, op); len(rows) != 0 {
		t.Fatalf("rows = %d", len(rows))
	}
	if ex.scan != 0 || ex.work != 0 {
		t.Fatalf("missing scan must not touch the store: scan=%d work=%v", ex.scan, ex.work)
	}
}

func TestProbeOpUnit(t *testing.T) {
	st := buildStreamStore(t)
	ex := &executor{st: st}
	c, _ := compilePattern(t, st, `SELECT * WHERE {
  <http://x/alice> <http://x/knows> ?f .
  ?f <http://x/age> ?a .
}`)
	outer := newScanOp(ex, &c.Patterns[0])
	probe := &probeOp{ex: ex, child: outer, plan: buildProbePlan(outer.vars(), &c.Patterns[1])}
	wantVars := []sparql.Var{"f", "a"}
	got := probe.vars()
	if len(got) != len(wantVars) || got[0] != wantVars[0] || got[1] != wantVars[1] {
		t.Fatalf("vars = %v, want %v", got, wantVars)
	}
	rows := drainOp(t, probe)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (bob, carol)", len(rows))
	}
	if ex.cout != 2 {
		t.Fatalf("cout = %v, want 2 (probe output)", ex.cout)
	}
}

func TestJoinOpUnit(t *testing.T) {
	st := buildStreamStore(t)
	c, _ := compilePattern(t, st, `SELECT * WHERE {
  ?p <http://x/knows> ?f .
  ?q <http://x/knows> ?f .
}`)
	ex := &executor{st: st}
	l := newScanOp(ex, &c.Patterns[0])
	r := newScanOp(ex, &c.Patterns[1])
	j := &joinOp{ex: ex, op: plan.PhysHashJoin, left: l, right: r}
	rows := drainOp(t, j)
	// knows has 3 edges; join on ?f: bob(1×1) + carol(2×2) = 5.
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if ex.cout != 5 {
		t.Fatalf("cout = %v, want 5", ex.cout)
	}
	if len(j.vars()) != 3 {
		t.Fatalf("vars = %v", j.vars())
	}
}

func TestDistinctOpAcrossBatches(t *testing.T) {
	// Duplicates split across many batches must still be removed: the seen
	// set persists across next() calls.
	rng := rand.New(rand.NewSource(5))
	b := store.NewBuilder()
	for i := 0; i < 4000; i++ {
		tr := rdf.NewTriple(
			iri(fmt.Sprintf("s%d", i)),
			iri("p0"),
			iri(fmt.Sprintf("o%d", rng.Intn(7))),
		)
		if err := b.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Build()
	src := `SELECT DISTINCT ?o WHERE { ?s <http://x/p0> ?o . }`
	res := run(t, st, src, Options{})
	if len(res.Rows) != 7 {
		t.Fatalf("distinct rows = %d, want 7", len(res.Rows))
	}
}
