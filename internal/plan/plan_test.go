package plan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

const ns = "http://x/"

func iri(n string) rdf.Term { return rdf.NewIRI(ns + n) }

// buildIntroStore creates the paper's intro scenario: persons with
// correlated firstName and livesIn. "Li" is frequent in China, "John" rare
// there; joins over the two patterns are respectively unselective and
// selective.
func buildIntroStore(t testing.TB) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		p := iri(fmt.Sprintf("person%d", i))
		var country, name string
		if i < 500 {
			country = "China"
			if rng.Float64() < 0.4 {
				name = "Li"
			} else {
				name = fmt.Sprintf("CN%d", rng.Intn(50))
			}
		} else {
			country = "USA"
			if rng.Float64() < 0.4 {
				name = "John"
			} else {
				name = fmt.Sprintf("US%d", rng.Intn(50))
			}
		}
		add(p, iri("firstName"), rdf.NewLiteral(name))
		add(p, iri("livesIn"), iri(country))
		add(p, rdf.NewIRI(rdf.RDFType), iri("Person"))
	}
	// One John in China so the selective join is non-empty.
	add(iri("personX"), iri("firstName"), rdf.NewLiteral("John"))
	add(iri("personX"), iri("livesIn"), iri("China"))
	return b.Build()
}

func mustCompile(t testing.TB, st *store.Store, src string) *Compiled {
	t.Helper()
	q := sparql.MustParse(src)
	c, err := Compile(q, st)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileBasics(t *testing.T) {
	st := buildIntroStore(t)
	c := mustCompile(t, st, `SELECT * WHERE {
  ?p <http://x/firstName> "Li" .
  ?p <http://x/livesIn> <http://x/China> .
}`)
	if len(c.Patterns) != 2 {
		t.Fatalf("patterns = %d", len(c.Patterns))
	}
	if c.Patterns[0].VarS != "p" || c.Patterns[0].VarO != "" {
		t.Fatalf("pattern 0 vars wrong: %+v", c.Patterns[0])
	}
	if c.Patterns[0].Missing || c.Patterns[1].Missing {
		t.Fatal("known terms marked missing")
	}
	if c.Patterns[0].VarMask&c.Patterns[1].VarMask == 0 {
		t.Fatal("patterns share ?p")
	}
}

func TestCompileErrors(t *testing.T) {
	st := buildIntroStore(t)
	q := sparql.MustParse(`SELECT * WHERE { ?p <http://x/firstName> %name . }`)
	if _, err := Compile(q, st); err == nil {
		t.Fatal("expected error for unbound parameter")
	}
}

func TestCompileMissingTerm(t *testing.T) {
	st := buildIntroStore(t)
	c := mustCompile(t, st, `SELECT * WHERE { ?p <http://x/firstName> "Zzyzx" . }`)
	if !c.Patterns[0].Missing {
		t.Fatal("unknown literal should be Missing")
	}
	est := NewEstimator(st)
	if card := est.PatternCard(c.Patterns[0]); card != 0 {
		t.Fatalf("missing pattern card = %v, want 0", card)
	}
	p, err := Optimize(c, est)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstCard != 0 {
		t.Fatalf("plan card = %v, want 0", p.EstCard)
	}
}

func TestEstimatorExactSinglePatterns(t *testing.T) {
	st := buildIntroStore(t)
	est := NewEstimator(st)
	c := mustCompile(t, st, `SELECT * WHERE {
  ?p <http://x/livesIn> <http://x/China> .
  ?p <http://x/firstName> ?n .
  ?p ?pr <http://x/USA> .
}`)
	if got := est.PatternCard(c.Patterns[0]); got != 501 {
		t.Fatalf("China residents = %v, want 501", got)
	}
	if got := est.PatternCard(c.Patterns[1]); got != 1001 {
		t.Fatalf("firstName triples = %v, want 1001", got)
	}
	if got := est.PatternCard(c.Patterns[2]); got != 500 {
		t.Fatalf("USA triples = %v, want 500", got)
	}
}

func TestCoutDefinition(t *testing.T) {
	// Leaf cost must be 0; join cost = card + children costs.
	leafA := &Node{Leaf: &CompiledPattern{Index: 0}, Card: 10}
	leafB := &Node{Leaf: &CompiledPattern{Index: 1}, Card: 20}
	join := &Node{Left: leafA, Right: leafB, Card: 5, Cost: 5}
	if leafA.Cost != 0 || join.Cost != 5 {
		t.Fatal("Cout definition violated")
	}
	top := &Node{Left: join, Right: &Node{Leaf: &CompiledPattern{Index: 2}, Card: 3}, Card: 2, Cost: 2 + 5}
	if top.Cost != 7 {
		t.Fatal("Cout accumulation broken")
	}
}

func TestSignatureCanonical(t *testing.T) {
	a := &Node{Leaf: &CompiledPattern{Index: 0}}
	b := &Node{Leaf: &CompiledPattern{Index: 1}}
	ab := &Node{Left: a, Right: b}
	ba := &Node{Left: b, Right: a}
	if ab.Signature() != ba.Signature() {
		t.Fatalf("commutated joins differ: %s vs %s", ab.Signature(), ba.Signature())
	}
	c := &Node{Leaf: &CompiledPattern{Index: 2}}
	leftDeep := &Node{Left: ab, Right: c}
	rightDeep := &Node{Left: a, Right: &Node{Left: b, Right: c}}
	if leftDeep.Signature() == rightDeep.Signature() {
		t.Fatal("different association shapes must differ")
	}
}

func TestOptimizeSelectiveFirst(t *testing.T) {
	// John+China: the selective pattern (John) must be joined before the
	// unselective livesIn China scan is exploded — DP picks it up from the
	// cardinalities automatically.
	st := buildIntroStore(t)
	est := NewEstimator(st)
	c := mustCompile(t, st, `SELECT * WHERE {
  ?p <http://x/firstName> "John" .
  ?p <http://x/livesIn> <http://x/China> .
  ?p a <http://x/Person> .
}`)
	p, err := Optimize(c, est)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != "dp" {
		t.Fatalf("method = %s", p.Method)
	}
	// The first join must involve pattern 0 (John) and pattern 1 (China),
	// not the huge rdf:type scan.
	root := p.Alg.Root
	if root.IsLeaf() {
		t.Fatal("root is leaf")
	}
	firstJoin := root.Left
	if firstJoin.IsLeaf() {
		firstJoin = root.Right
	}
	pats := firstJoin.Patterns()
	if len(pats) != 2 {
		t.Fatalf("first join over %v", pats)
	}
	for _, idx := range pats {
		if idx == 2 {
			t.Fatalf("rdf:type scan joined first: %s", p)
		}
	}
}

func TestDPOptimalVsBruteForce(t *testing.T) {
	// For every 3-pattern chain query, DP must be at least as cheap as all
	// left-deep orders enumerated by brute force.
	st := buildIntroStore(t)
	est := NewEstimator(st)
	c := mustCompile(t, st, `SELECT * WHERE {
  ?p <http://x/firstName> ?n .
  ?p <http://x/livesIn> ?c .
  ?p a <http://x/Person> .
}`)
	p, err := Optimize(c, est)
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		cost := leftDeepCost(est, c, perm)
		if p.EstCost > cost+1e-9 {
			t.Fatalf("DP cost %.1f > left-deep %v cost %.1f", p.EstCost, perm, cost)
		}
	}
}

func leftDeepCost(est *Estimator, c *Compiled, order []int) float64 {
	newSet := func() Set { return Set{Distinct: make([]float64, len(c.Vars))} }
	cur, next, joined := newSet(), newSet(), newSet()
	est.Leaf(&cur, &c.Patterns[order[0]])
	cost := 0.0
	for _, idx := range order[1:] {
		est.Leaf(&next, &c.Patterns[idx])
		est.Join(&joined, &cur, &next)
		cur, joined = joined, cur
		cost += cur.Card
	}
	return cost
}

func TestGreedyProducesValidTree(t *testing.T) {
	st := buildIntroStore(t)
	est := NewEstimator(st)
	c := mustCompile(t, st, `SELECT * WHERE {
  ?p <http://x/firstName> ?n .
  ?p <http://x/livesIn> ?c .
  ?p a <http://x/Person> .
}`)
	g, sig := optimizeGreedy(c.Patterns, est)
	if sig != g.Signature() {
		t.Fatalf("signature %s, tree renders %s", sig, g.Signature())
	}
	pats := g.Patterns()
	if len(pats) != 3 {
		t.Fatalf("greedy tree covers %v", pats)
	}
	seen := map[int]bool{}
	for _, idx := range pats {
		if seen[idx] {
			t.Fatalf("pattern %d appears twice", idx)
		}
		seen[idx] = true
	}
	// Greedy can never beat exact DP.
	d, err := Optimize(c, est)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cost < d.EstCost-1e-9 {
		t.Fatalf("greedy %.1f beat DP %.1f", g.Cost, d.EstCost)
	}
}

func TestDisconnectedCrossProduct(t *testing.T) {
	st := buildIntroStore(t)
	est := NewEstimator(st)
	c := mustCompile(t, st, `SELECT * WHERE {
  ?p <http://x/firstName> "Li" .
  ?q <http://x/firstName> "John" .
}`)
	p, err := Optimize(c, est)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Alg.Root.Patterns()) != 2 {
		t.Fatal("cross product plan incomplete")
	}
	if p.EstCard <= 0 {
		t.Fatalf("cross product card = %v", p.EstCard)
	}
}

func TestOptimizeSingle(t *testing.T) {
	st := buildIntroStore(t)
	est := NewEstimator(st)
	c := mustCompile(t, st, `SELECT * WHERE { ?p <http://x/firstName> "Li" . }`)
	p, err := Optimize(c, est)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Alg.Root.IsLeaf() || p.EstCost != 0 {
		t.Fatalf("single-pattern plan should be a free scan: %+v", p)
	}
	if p.Signature != "p0" {
		t.Fatalf("signature = %q", p.Signature)
	}
}

func TestLargeQueryFallsBackToGreedy(t *testing.T) {
	st := buildIntroStore(t)
	est := NewEstimator(st)
	var src string
	src = "SELECT * WHERE {\n"
	for i := 0; i < MaxDPPatterns+1; i++ {
		src += fmt.Sprintf("  ?p%d <http://x/firstName> ?n%d .\n  ?p%d <http://x/livesIn> ?c .\n", i, i, i)
	}
	src += "}"
	c := mustCompile(t, st, src)
	p, err := Optimize(c, est)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != "greedy" {
		t.Fatalf("method = %s, want greedy for %d patterns", p.Method, len(c.Patterns))
	}
}

// TestAlgebraLeafFallsBackToGreedy: a BGP leaf beyond MaxDPPatterns under
// OPTIONAL is ordered greedily, and the plan says so, while the same query
// with a DP-sized optional leaf reports dp.
func TestAlgebraLeafFallsBackToGreedy(t *testing.T) {
	st := buildIntroStore(t)
	est := NewEstimator(st)
	for _, tc := range []struct {
		optional int
		method   string
	}{{MaxDPPatterns, "dp"}, {MaxDPPatterns + 1, "greedy"}} {
		src := "SELECT * WHERE {\n  ?p <http://x/livesIn> ?c .\n  OPTIONAL {\n"
		for i := 0; i < tc.optional; i++ {
			src += fmt.Sprintf("    ?q%d <http://x/livesIn> ?c .\n", i)
		}
		src += "  }\n}"
		p, err := Optimize(mustCompile(t, st, src), est)
		if err != nil {
			t.Fatal(err)
		}
		if p.Method != tc.method || p.Alg.Kind != AlgLeftJoin || len(p.Alg.Right.Compiled) != tc.optional {
			t.Fatalf("%d optional patterns: method %s, want %s\n%s", tc.optional, p.Method, tc.method, p)
		}
	}
}

func TestPlanString(t *testing.T) {
	st := buildIntroStore(t)
	est := NewEstimator(st)
	c := mustCompile(t, st, `SELECT * WHERE {
  ?p <http://x/firstName> "Li" .
  ?p <http://x/livesIn> <http://x/China> .
}`)
	p, err := Optimize(c, est)
	if err != nil {
		t.Fatal(err)
	}
	// A flat query is one BGP leaf: its join tree renders under it.
	if s := p.String(); !strings.Contains(s, "\nBGP card=") || !strings.Contains(s, "\n  Join card=") {
		t.Fatalf("render:\n%s", s)
	}
}

func TestCompileNumbersVariables(t *testing.T) {
	st := buildIntroStore(t)
	c := mustCompile(t, st, `SELECT * WHERE {
  ?p <http://x/firstName> ?n .
  ?q ?r ?p .
  ?q <http://x/livesIn> ?c .
}`)
	want := []sparql.Var{"p", "n", "q", "r", "c"}
	if fmt.Sprint(c.Vars) != fmt.Sprint(want) {
		t.Fatalf("Vars = %v, want %v (first appearance)", c.Vars, want)
	}
	for i, m := range []uint64{0b00011, 0b01101, 0b10100} {
		if c.Patterns[i].VarMask != m {
			t.Errorf("pattern %d VarMask = %b, want %b", i, c.Patterns[i].VarMask, m)
		}
	}
}

func TestCompileRejectsTooManyVariables(t *testing.T) {
	st := buildIntroStore(t)
	src := "SELECT * WHERE {\n"
	for i := 0; i < 22; i++ { // 22 patterns × 3 fresh variables = 66
		src += fmt.Sprintf("  ?s%d ?p%d ?o%d .\n", i, i, i)
	}
	src += "}"
	if _, err := Compile(sparql.MustParse(src), st); err == nil {
		t.Fatalf("compiled a query with 66 distinct variables; at most %d are supported", MaxVars)
	}
}

func TestVarsAllocs(t *testing.T) {
	st := buildIntroStore(t)
	c := mustCompile(t, st, `SELECT * WHERE {
  ?p ?r ?p .
  ?p <http://x/livesIn> ?c .
}`)
	if got := c.Patterns[0].Vars(); fmt.Sprint(got) != "[p r]" {
		t.Fatalf("Vars = %v, want [p r]", got)
	}
	if n := testing.AllocsPerRun(100, func() { c.Patterns[1].Vars() }); n > 1 {
		t.Errorf("Vars allocates %v times, want ≤ 1", n)
	}
}

// twoSharedVarStore has predicates a and b with seven triples each over
// three subjects and five objects, so ?x <a> ?y ⋈ ?x <b> ?y divides by
// the distinct counts 3 and 5 — in an order that shows in the last bit.
func twoSharedVarStore(t *testing.T) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	for _, p := range []string{"a", "b"} {
		for k := 0; k < 7; k++ {
			tr := rdf.NewTriple(iri(fmt.Sprintf("s%d", k%3)), iri(p), iri(fmt.Sprintf("o%d", k%5)))
			if err := b.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

func TestJoinDivisionOrderIsFixed(t *testing.T) {
	x := 1000.0
	if x/3/5 == x/5/3 {
		t.Fatal("premise: 1000/3/5 and 1000/5/3 should differ in float64")
	}
	a := Set{Card: x, VarMask: 0b11, Distinct: []float64{3, 5}}
	b := Set{Card: 1, VarMask: 0b11, Distinct: []float64{1, 1}}
	var est Estimator
	for i := 0; i < 200; i++ {
		out := Set{Distinct: make([]float64, 2)}
		est.Join(&out, &a, &b)
		if math.Float64bits(out.Card) != math.Float64bits(x/3/5) {
			t.Fatalf("run %d: card %v (bits %x), want %v divided in ascending variable order", i, out.Card, math.Float64bits(out.Card), x/3/5)
		}
	}
}

func TestOptimizeEstimateIsReproducible(t *testing.T) {
	st := twoSharedVarStore(t)
	c := mustCompile(t, st, `SELECT * WHERE { ?x <http://x/a> ?y . ?x <http://x/b> ?y . }`)
	card := 7.0 * 7.0 // a variable: constant division would be exact
	if card/3/5 == card/5/3 {
		t.Fatal("premise: the two division orders should differ in float64")
	}
	for i := 0; i < 50; i++ {
		p, err := Optimize(c, NewEstimator(st))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(p.EstCost) != math.Float64bits(card/3/5) {
			t.Fatalf("run %d: EstCost %v, want %v (÷3 for ?x, then ÷5 for ?y)", i, p.EstCost, card/3/5)
		}
	}
}
