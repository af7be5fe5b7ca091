package plan

import (
	"strings"
	"testing"
)

const starQuery = `SELECT * WHERE {
  ?h <http://x/knows> ?a .
  ?h <http://x/age> ?x .
  ?h <http://x/creator> ?c .
}`

func TestLeapfrogEligibleStar(t *testing.T) {
	st := buildPhysStore(t)
	ph, _ := lowerQuery(t, st, starQuery, PhysOptions{Leapfrog: true})
	if ph.Root.Op != PhysLeapfrog {
		t.Fatalf("root = %s, want LeapfrogTrieJoin\n%s", ph.Root.Op, ph)
	}
	if len(ph.Root.Leaves) != 3 {
		t.Fatalf("leaves = %d, want 3", len(ph.Root.Leaves))
	}
	// The hub ?h occurs in all three patterns and must lead the trie order.
	if len(ph.Root.TrieVars) != 4 || ph.Root.TrieVars[0] != "h" {
		t.Fatalf("trie order = %v, want ?h first", ph.Root.TrieVars)
	}
	// Remaining variables tie at one occurrence each: first-occurrence order.
	for i, want := range []string{"h", "a", "x", "c"} {
		if string(ph.Root.TrieVars[i]) != want {
			t.Fatalf("trie order = %v, want [h a x c]", ph.Root.TrieVars)
		}
	}
	// Schema and cardinality come from the binary plan it replaced.
	bin, _ := lowerQuery(t, st, starQuery, PhysOptions{})
	if len(ph.Root.Vars) != len(bin.Root.Vars) {
		t.Fatalf("schema %v differs from binary plan %v", ph.Root.Vars, bin.Root.Vars)
	}
	for i := range bin.Root.Vars {
		if ph.Root.Vars[i] != bin.Root.Vars[i] {
			t.Fatalf("schema %v differs from binary plan %v", ph.Root.Vars, bin.Root.Vars)
		}
	}
}

func TestLeapfrogIneligible(t *testing.T) {
	st := buildPhysStore(t)
	cases := []struct {
		name, src string
	}{
		{"two-patterns", `SELECT * WHERE {
  ?a <http://x/knows> ?b .
  ?b <http://x/age> ?x .
}`},
		{"no-hub-chain", `SELECT * WHERE {
  ?a <http://x/knows> ?b .
  ?b <http://x/knows> ?c .
  ?c <http://x/age> ?x .
}`},
		{"disconnected", `SELECT * WHERE {
  ?h <http://x/knows> ?a .
  ?h <http://x/age> ?x .
  ?h <http://x/creator> ?c .
  ?z <http://x/date> ?d .
}`},
		{"missing-constant", `SELECT * WHERE {
  ?h <http://x/knows> ?a .
  ?h <http://x/age> ?x .
  ?h <http://x/nonexistent> ?c .
}`},
		{"repeated-var-in-pattern", `SELECT * WHERE {
  ?h <http://x/knows> ?h .
  ?h <http://x/age> ?x .
  ?h <http://x/creator> ?c .
}`},
	}
	for _, tc := range cases {
		ph, _ := lowerQuery(t, st, tc.src, PhysOptions{Leapfrog: true})
		ops := map[PhysOp]int{}
		countOps(ph.Root, ops)
		if ops[PhysLeapfrog] != 0 {
			t.Errorf("%s: lowered to leapfrog, want binary plan\n%s", tc.name, ph)
		}
	}
}

func TestLeapfrogOffByDefault(t *testing.T) {
	st := buildPhysStore(t)
	ph, _ := lowerQuery(t, st, starQuery, PhysOptions{})
	ops := map[PhysOp]int{}
	countOps(ph.Root, ops)
	if ops[PhysLeapfrog] != 0 {
		t.Fatalf("leapfrog node without opt-in\n%s", ph)
	}
}

func TestLeapfrogExplain(t *testing.T) {
	st := buildPhysStore(t)
	ph, _ := lowerQuery(t, st, starQuery, PhysOptions{Leapfrog: true})
	s := ph.String()
	if !strings.Contains(s, "LeapfrogTrieJoin") || !strings.Contains(s, "[leapfrog]") {
		t.Fatalf("rendering missing leapfrog tag:\n%s", s)
	}
	if !strings.Contains(s, "order(?h ?a ?x ?c)") {
		t.Fatalf("rendering missing trie order:\n%s", s)
	}
	for _, p := range []string{"p0", "p1", "p2"} {
		if !strings.Contains(s, p) {
			t.Fatalf("rendering missing pattern %s:\n%s", p, s)
		}
	}
}

func TestLeapfrogEpilogueAndFilters(t *testing.T) {
	st := buildPhysStore(t)
	src := `SELECT DISTINCT ?a WHERE {
  ?h <http://x/knows> ?a .
  ?h <http://x/age> ?x .
  ?h <http://x/creator> ?c .
  FILTER(?x > 18)
} ORDER BY ?a LIMIT 5`
	for _, push := range []bool{false, true} {
		ph, _ := lowerQuery(t, st, src, PhysOptions{Leapfrog: true, PushFilters: push})
		var chain []PhysOp
		for n := ph.Root; n != nil; n = n.Left {
			chain = append(chain, n.Op)
		}
		want := []PhysOp{PhysLimit, PhysDistinct, PhysProject, PhysOrder, PhysFilter, PhysLeapfrog}
		if len(chain) != len(want) {
			t.Fatalf("push=%v: chain = %v, want %v\n%s", push, chain, want, ph)
		}
		for i := range want {
			if chain[i] != want[i] {
				t.Fatalf("push=%v: chain[%d] = %s, want %s\n%s", push, i, chain[i], want[i], ph)
			}
		}
	}
}

func TestLeapfrogHubOrdering(t *testing.T) {
	st := buildPhysStore(t)
	// ?b occurs in three patterns, ?a in two: ?b must precede ?a even though
	// ?a occurs first in the query text.
	src := `SELECT * WHERE {
  ?a <http://x/knows> ?b .
  ?b <http://x/age> ?x .
  ?b <http://x/creator> ?c .
  ?a <http://x/date> ?d .
}`
	ph, _ := lowerQuery(t, st, src, PhysOptions{Leapfrog: true})
	if ph.Root.Op != PhysLeapfrog {
		t.Fatalf("root = %s, want LeapfrogTrieJoin\n%s", ph.Root.Op, ph)
	}
	tv := ph.Root.TrieVars
	if tv[0] != "b" || tv[1] != "a" {
		t.Fatalf("trie order = %v, want ?b (3 occurrences) then ?a (2)", tv)
	}
}
