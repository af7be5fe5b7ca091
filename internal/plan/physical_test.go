package plan

import (
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

const physNS = "http://x/"

func physIRI(n string) rdf.Term { return rdf.NewIRI(physNS + n) }

func buildPhysStore(t *testing.T) *store.Store {
	t.Helper()
	b := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	add(physIRI("alice"), physIRI("knows"), physIRI("bob"))
	add(physIRI("bob"), physIRI("knows"), physIRI("carol"))
	add(physIRI("alice"), physIRI("age"), rdf.NewInteger(30))
	add(physIRI("bob"), physIRI("age"), rdf.NewInteger(17))
	add(physIRI("carol"), physIRI("age"), rdf.NewInteger(45))
	add(physIRI("post1"), physIRI("creator"), physIRI("bob"))
	add(physIRI("post1"), physIRI("date"), rdf.NewTypedLiteral("2013-01-05", rdf.XSDDate))
	return b.Build()
}

func lowerQuery(t *testing.T, st *store.Store, src string) (*PhysNode, *Compiled) {
	t.Helper()
	c, err := Compile(sparql.MustParse(src), st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(c, NewEstimator(st))
	if err != nil {
		t.Fatal(err)
	}
	return p.Phys, c
}

// countOps returns how many nodes of each kind the tree contains.
func countOps(n *PhysNode, into map[PhysOp]int) {
	if n == nil {
		return
	}
	into[n.Op]++
	countOps(n.Left, into)
	countOps(n.Right, into)
}

func TestLowerSingleScan(t *testing.T) {
	st := buildPhysStore(t)
	ph, _ := lowerQuery(t, st, `SELECT * WHERE { ?s <http://x/knows> ?o . }`)
	if ph.Op != PhysIndexScan {
		t.Fatalf("root = %s, want IndexScan\n%s", ph.Op, ph)
	}
	if len(ph.Vars) != 2 || ph.Vars[0] != "s" || ph.Vars[1] != "o" {
		t.Fatalf("schema = %v", ph.Vars)
	}
}

func TestLowerChainUsesIndexProbes(t *testing.T) {
	st := buildPhysStore(t)
	ph, _ := lowerQuery(t, st, `SELECT * WHERE {
  ?a <http://x/knows> ?b .
  ?b <http://x/age> ?x .
}`)
	ops := map[PhysOp]int{}
	countOps(ph, ops)
	if ops[PhysIndexProbe] != 1 || ops[PhysIndexScan] != 1 {
		t.Fatalf("ops = %v, want 1 probe over 1 scan\n%s", ops, ph)
	}
	if ops[PhysHashJoin]+ops[PhysCross] != 0 {
		t.Fatalf("unexpected interior join: %v", ops)
	}
}

func TestLowerLeafLeafProbesLargerSide(t *testing.T) {
	st := buildPhysStore(t)
	// knows has 2 triples, age has 3: the scan must be over knows.
	ph, _ := lowerQuery(t, st, `SELECT * WHERE {
  ?p <http://x/knows> ?q .
  ?q <http://x/age> ?x .
}`)
	var probe *PhysNode
	var walk func(*PhysNode)
	walk = func(n *PhysNode) {
		if n == nil {
			return
		}
		if n.Op == PhysIndexProbe {
			probe = n
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(ph)
	if probe == nil {
		t.Fatalf("no probe\n%s", ph)
	}
	if probe.Left.Op != PhysIndexScan {
		t.Fatalf("probe outer = %s", probe.Left.Op)
	}
	if probe.Left.Card > probe.Card && probe.Leaf == probe.Left.Leaf {
		t.Fatalf("scanned the probed pattern")
	}
}

func TestLowerCrossProduct(t *testing.T) {
	st := buildPhysStore(t)
	ph, _ := lowerQuery(t, st, `SELECT * WHERE {
  <http://x/alice> <http://x/age> ?a .
  <http://x/bob> <http://x/age> ?b .
}`)
	ops := map[PhysOp]int{}
	countOps(ph, ops)
	if ops[PhysCross] != 1 {
		t.Fatalf("ops = %v, want one cross product\n%s", ops, ph)
	}
}

func TestLowerMissingLeafScansEmptySide(t *testing.T) {
	// A missing leaf (constant absent from the dictionary) estimates to
	// cardinality 0, so it becomes the outer scan and the live pattern is
	// probed.
	st := buildPhysStore(t)
	ph, _ := lowerQuery(t, st, `SELECT * WHERE {
  ?p <http://x/knows> ?f .
  ?f <http://x/nonexistent> ?z .
}`)
	ops := map[PhysOp]int{}
	countOps(ph, ops)
	if ops[PhysIndexProbe] != 1 || ops[PhysIndexScan] != 1 {
		t.Fatalf("ops = %v\n%s", ops, ph)
	}
	probe := ph
	for probe != nil && probe.Op != PhysIndexProbe {
		probe = probe.Left
	}
	if probe == nil || !probe.Left.Leaf.Missing {
		t.Fatalf("outer scan must be the missing (empty) leaf\n%s", ph)
	}
}

// handTree compiles src and builds the given join tree over its patterns;
// shape is a nested pair structure of pattern indexes.
func handTree(t *testing.T, st *store.Store, src string) (*Compiled, func(l, r *Node) *Node, func(i int) *Node) {
	t.Helper()
	c, err := Compile(sparql.MustParse(src), st)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(st)
	leaf := func(i int) *Node {
		return &Node{Leaf: &c.Patterns[i], Card: est.PatternCard(c.Patterns[i])}
	}
	join := func(l, r *Node) *Node {
		return &Node{Left: l, Right: r, Card: l.Card * r.Card}
	}
	return c, join, leaf
}

func TestLowerProbeOfMissingLeafFallsBackToJoin(t *testing.T) {
	// A composite outer joined with a missing leaf cannot be probed: the
	// lowering must degrade to a regular join over a scan of the leaf.
	st := buildPhysStore(t)
	c, join, leaf := handTree(t, st, `SELECT * WHERE {
  ?a <http://x/knows> ?b .
  ?b <http://x/age> ?x .
  ?b <http://x/nonexistent> ?z .
}`)
	root := join(join(leaf(0), leaf(1)), leaf(2))
	ph, err := lowerPlan(&AlgNode{Kind: AlgBGP, Compiled: c.Patterns, Root: root}, c.Query)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[PhysOp]int{}
	countOps(ph, ops)
	if ops[PhysHashJoin] != 1 {
		t.Fatalf("ops = %v, want hash-join fallback for the missing leaf\n%s", ops, ph)
	}
}

func TestLowerInteriorHashJoin(t *testing.T) {
	// A bushy tree with two composite children joins them with a hash join,
	// the only interior-join algorithm.
	st := buildPhysStore(t)
	c, join, leaf := handTree(t, st, `SELECT * WHERE {
  ?a <http://x/knows> ?b .
  ?b <http://x/knows> ?c .
  ?c <http://x/age> ?x .
  ?a <http://x/age> ?y .
}`)
	root := join(join(leaf(0), leaf(1)), join(leaf(2), leaf(3)))
	ph, err := lowerPlan(&AlgNode{Kind: AlgBGP, Compiled: c.Patterns, Root: root}, c.Query)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[PhysOp]int{}
	countOps(ph, ops)
	if ops[PhysHashJoin] != 1 {
		t.Fatalf("ops = %v, want one HashJoin\n%s", ops, ph)
	}
}

func TestLowerEpilogueOrder(t *testing.T) {
	st := buildPhysStore(t)
	ph, _ := lowerQuery(t, st, `SELECT DISTINCT ?s WHERE {
  ?s <http://x/age> ?a .
  FILTER(?a > 18)
} ORDER BY ?a LIMIT 2`)
	var got []PhysOp
	for n := ph; n != nil; n = n.Left {
		got = append(got, n.Op)
	}
	want := []PhysOp{PhysLimit, PhysDistinct, PhysProject, PhysOrder, PhysFilter, PhysIndexScan}
	if len(got) != len(want) {
		t.Fatalf("chain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain[%d] = %s, want %s\n%s", i, got[i], want[i], ph)
		}
	}
}

// TestLowerErrors: Optimize rejects every query naming a variable its
// patterns do not bind, and a duplicate aggregate output, so no plan it
// returns fails in the executor.
func TestLowerErrors(t *testing.T) {
	st := buildPhysStore(t)
	bad := []string{
		`SELECT ?zzz WHERE { ?s <http://x/age> ?a . }`,
		`SELECT * WHERE { ?s <http://x/age> ?a . FILTER(?nope > 1) }`,
		`SELECT * WHERE { ?s <http://x/age> ?a . } ORDER BY ?nope`,
		`SELECT ?nope WHERE { ?s <http://x/age> ?a . } GROUP BY ?nope`,
		`SELECT (COUNT(?nope) AS ?n) WHERE { ?s <http://x/age> ?a . }`,
	}
	for _, src := range bad {
		c, err := Compile(sparql.MustParse(src), st)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := Optimize(c, NewEstimator(st)); err == nil {
			t.Errorf("Optimize accepted %q:\n%s", src, p.Phys)
		}
	}
	// The parser rejects a repeated alias, so the lowering's own check is
	// reached only through a hand-built query.
	q := sparql.MustParse(`SELECT (COUNT(?a) AS ?n) WHERE { ?s <http://x/age> ?a . }`)
	q.Aggs = append(q.Aggs, q.Aggs[0])
	c, err := Compile(q, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(c, NewEstimator(st)); err == nil || !strings.Contains(err.Error(), "duplicate aggregate output") {
		t.Errorf("duplicate aggregate output: err = %v", err)
	}
}

func TestPhysicalString(t *testing.T) {
	st := buildPhysStore(t)
	ph, _ := lowerQuery(t, st, `SELECT ?f WHERE {
  <http://x/alice> <http://x/knows> ?f .
  ?f <http://x/age> ?a .
  FILTER(?a >= 18)
}`)
	s := ph.String()
	for _, want := range []string{"IndexScan", "Project", "Filter"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}
