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

func lowerQuery(t *testing.T, st *store.Store, src string) (*Physical, *Compiled) {
	t.Helper()
	c, err := Compile(sparql.MustParse(src), st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(c, NewEstimator(st))
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Lower(c, p)
	if err != nil {
		t.Fatal(err)
	}
	return ph, c
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
	if ph.Root.Op != PhysIndexScan {
		t.Fatalf("root = %s, want IndexScan\n%s", ph.Root.Op, ph)
	}
	if len(ph.Root.Vars) != 2 || ph.Root.Vars[0] != "s" || ph.Root.Vars[1] != "o" {
		t.Fatalf("schema = %v", ph.Root.Vars)
	}
}

func TestLowerChainUsesIndexProbes(t *testing.T) {
	st := buildPhysStore(t)
	ph, _ := lowerQuery(t, st, `SELECT * WHERE {
  ?a <http://x/knows> ?b .
  ?b <http://x/age> ?x .
}`)
	ops := map[PhysOp]int{}
	countOps(ph.Root, ops)
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
	walk(ph.Root)
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
	countOps(ph.Root, ops)
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
	countOps(ph.Root, ops)
	if ops[PhysIndexProbe] != 1 || ops[PhysIndexScan] != 1 {
		t.Fatalf("ops = %v\n%s", ops, ph)
	}
	probe := ph.Root
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
	ph, err := Lower(c, &Plan{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	ops := map[PhysOp]int{}
	countOps(ph.Root, ops)
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
	ph, err := Lower(c, &Plan{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	ops := map[PhysOp]int{}
	countOps(ph.Root, ops)
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
	for n := ph.Root; n != nil; n = n.Left {
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

func TestLowerErrors(t *testing.T) {
	st := buildPhysStore(t)
	bad := []string{
		`SELECT ?zzz WHERE { ?s <http://x/age> ?a . }`,
		`SELECT * WHERE { ?s <http://x/age> ?a . FILTER(?nope > 1) }`,
		`SELECT * WHERE { ?s <http://x/age> ?a . } ORDER BY ?nope`,
	}
	for _, src := range bad {
		c, err := Compile(sparql.MustParse(src), st)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Optimize(c, NewEstimator(st))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Lower(c, p); err == nil {
			t.Errorf("expected lowering error for %q", src)
		}
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

// TestLowerMarksParallelPipelines: the topmost node of every maximal
// scan→probe/filter/project chain carries the ParallelSource annotation
// pointing at its partitionable IndexScan, and nodes inside the pipeline or
// above a breaker stay unmarked.
func TestLowerMarksParallelPipelines(t *testing.T) {
	st := buildPhysStore(t)

	// A probe chain with filter and projection: one pipeline, marked at the
	// top (the Project), with the source scan at the bottom.
	ph, _ := lowerQuery(t, st, `SELECT ?x WHERE {
  ?a <http://x/knows> ?b .
  ?b <http://x/age> ?x .
  FILTER(?x > 10)
}`)
	if ph.ParallelPipelines() != 1 {
		t.Fatalf("pipelines = %d, want 1\n%s", ph.ParallelPipelines(), ph)
	}
	if ph.Root.ParallelSource == nil {
		t.Fatalf("root not marked as pipeline top\n%s", ph)
	}
	if ph.Root.ParallelSource.Op != PhysIndexScan {
		t.Fatalf("source = %s, want IndexScan", ph.Root.ParallelSource.Op)
	}
	var inner int
	var walk func(*PhysNode)
	walk = func(n *PhysNode) {
		if n == nil {
			return
		}
		if n != ph.Root && n.ParallelSource != nil {
			inner++
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(ph.Root)
	if inner != 0 {
		t.Fatalf("%d nodes inside the pipeline are marked too", inner)
	}
	if !strings.Contains(ph.String(), "[parallel-eligible]") {
		t.Fatalf("rendering missing parallel marker:\n%s", ph)
	}

	// ORDER BY is a breaker: the pipeline below it is marked, the Order and
	// anything above it is not.
	ph, _ = lowerQuery(t, st, `SELECT ?b WHERE {
  ?a <http://x/knows> ?b .
  ?b <http://x/age> ?x .
} ORDER BY ?b`)
	if ph.ParallelPipelines() != 1 {
		t.Fatalf("pipelines = %d, want 1\n%s", ph.ParallelPipelines(), ph)
	}
	// Neither the root nor the Order breaker may carry the annotation; the
	// single marked node must sit strictly below the Order.
	for n := ph.Root; n != nil && n.Op != PhysOrder; n = n.Left {
		if n.ParallelSource != nil {
			t.Fatalf("%s above the Order breaker marked as pipeline\n%s", n.Op, ph)
		}
	}
	var order *PhysNode
	for n := ph.Root; n != nil; n = n.Left {
		if n.Op == PhysOrder {
			order = n
			break
		}
	}
	if order == nil {
		t.Fatalf("no Order node\n%s", ph)
	}
	if order.ParallelSource != nil {
		t.Fatalf("Order breaker marked as pipeline\n%s", ph)
	}
	if order.Left.ParallelSource == nil {
		t.Fatalf("pipeline below the Order not marked\n%s", ph)
	}

	// A cross product: both leaf scans are their own (trivial) pipelines.
	ph, _ = lowerQuery(t, st, `SELECT * WHERE {
  ?a <http://x/knows> ?b .
  ?c <http://x/date> ?d .
}`)
	ops := map[PhysOp]int{}
	countOps(ph.Root, ops)
	if ops[PhysCross] != 1 {
		t.Fatalf("expected a cross product\n%s", ph)
	}
	if ph.ParallelPipelines() != 2 {
		t.Fatalf("pipelines = %d, want 2 (one per scan)\n%s", ph.ParallelPipelines(), ph)
	}

	// A missing-constant scan has nothing to partition: not eligible.
	ph, _ = lowerQuery(t, st, `SELECT * WHERE { ?s <http://x/nonexistent> ?o . }`)
	if ph.ParallelPipelines() != 0 {
		t.Fatalf("missing-leaf scan marked eligible\n%s", ph)
	}
}
