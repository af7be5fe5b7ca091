package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// tree builds a three-level span tree with known inclusive totals:
//
//	root (cout 10, work 30, scanned 7, wall 100)
//	├── left (cout 6, work 18, scanned 5, wall 60)
//	│   └── leaf (cout 2, work 8, scanned 5, wall 25)
//	└── right (cout 1, work 4, scanned 2, wall 20)
func tree() *Span {
	leaf := &Span{Op: "IndexScan", WallNs: 25, Cout: 2, Work: 8, Scanned: 5}
	left := &Span{Op: "HashJoin", WallNs: 60, Cout: 6, Work: 18, Scanned: 5, Children: []*Span{leaf}}
	right := &Span{Op: "IndexScan", WallNs: 20, Cout: 1, Work: 4, Scanned: 2}
	return &Span{Op: "Project", WallNs: 100, Cout: 10, Work: 30, Scanned: 7, Children: []*Span{left, right}}
}

func TestFinalizeDerivesExclusiveValues(t *testing.T) {
	root := tree()
	Finalize(root)
	checks := []struct {
		name    string
		s       *Span
		wall    int64
		cout    float64
		work    float64
		scanned int64
	}{
		{"root", root, 20, 3, 8, 0},
		{"left", root.Children[0], 35, 4, 10, 0},
		{"leaf", root.Children[0].Children[0], 25, 2, 8, 5},
		{"right", root.Children[1], 20, 1, 4, 2},
	}
	for _, c := range checks {
		if c.s.SelfWallNs != c.wall || c.s.SelfCout != c.cout || c.s.SelfWork != c.work || c.s.SelfScanned != c.scanned {
			t.Errorf("%s Self* = (wall=%d cout=%v work=%v scanned=%d), want (wall=%d cout=%v work=%v scanned=%d)",
				c.name, c.s.SelfWallNs, c.s.SelfCout, c.s.SelfWork, c.s.SelfScanned,
				c.wall, c.cout, c.work, c.scanned)
		}
	}
}

func TestSumReproducesRootInclusive(t *testing.T) {
	root := tree()
	Finalize(root)
	cout, work, scanned := Sum(root)
	if cout != root.Cout || work != root.Work || scanned != root.Scanned {
		t.Fatalf("Sum = (cout=%v work=%v scanned=%d), want root inclusive (cout=%v work=%v scanned=%d)",
			cout, work, scanned, root.Cout, root.Work, root.Scanned)
	}
	if c, w, s := Sum(nil); c != 0 || w != 0 || s != 0 {
		t.Fatalf("Sum(nil) = (%v %v %d), want zeros", c, w, s)
	}
	Finalize(nil) // must not panic
}

func TestRenderListsEverySpan(t *testing.T) {
	out := Render(tree())
	for _, want := range []string{
		"Project", "HashJoin", "IndexScan",
		"(actual: rows=0 batches=0 calls=0",
		"cout=10 work=30 scanned=7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
	// Children are indented one level deeper than their parent.
	if !strings.Contains(out, "\n  HashJoin") || !strings.Contains(out, "\n    IndexScan") {
		t.Errorf("rendering not indented by depth:\n%s", out)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	root := tree()
	Finalize(root)
	data, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Op != root.Op || back.Cout != root.Cout || len(back.Children) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestRingRetentionAndOrder(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(&QueryTrace{Endpoint: "execute"})
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
	got := r.Recent(10)
	if len(got) != 3 {
		t.Fatalf("ring of 3 returned %d traces", len(got))
	}
	// Newest first, IDs assigned in admission order.
	for i, tr := range got {
		if want := uint64(5 - i); tr.ID != want {
			t.Fatalf("trace %d has ID %d, want %d", i, tr.ID, want)
		}
	}
	if got := r.Recent(2); len(got) != 2 || got[0].ID != 5 {
		t.Fatalf("Recent(2) = %+v", got)
	}
	// n < 1 means "all retained".
	if got := r.Recent(0); len(got) != 3 {
		t.Fatalf("Recent(0) returned %d traces, want all 3", len(got))
	}
}

func TestRingDefaultsTinyCapacity(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 70; i++ {
		r.Add(&QueryTrace{})
	}
	if got := len(r.Recent(1000)); got != 64 {
		t.Fatalf("default ring kept %d traces, want 64", got)
	}
}
