package experiments

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
)

// Trace-correctness suite: a traced run must change nothing — results and
// accounting stay bit-identical to the untraced run — and the collected
// span tree must account for the run exactly: the root span's inclusive
// Cout/Work/Scanned equal the Result's, the per-span exclusive (Self*)
// values sum back to the same totals, the root emits exactly the result
// rows.

// checkTrace asserts the span-tree invariants against the run's Result.
func checkTrace(t *testing.T, name string, root *obs.Span, res *exec.Result) {
	t.Helper()
	if root == nil {
		t.Fatalf("%s: no trace collected", name)
	}
	if root.Cout != res.Cout || root.Work != res.Work || root.Scanned != int64(res.Scanned) {
		t.Errorf("%s: root span (cout=%v work=%v scanned=%d) != result (cout=%v work=%v scanned=%d)",
			name, root.Cout, root.Work, root.Scanned, res.Cout, res.Work, res.Scanned)
	}
	cout, work, scanned := obs.Sum(root)
	if cout != res.Cout || work != res.Work || scanned != int64(res.Scanned) {
		t.Errorf("%s: self-value sum (cout=%v work=%v scanned=%d) != result (cout=%v work=%v scanned=%d)",
			name, cout, work, scanned, res.Cout, res.Work, res.Scanned)
	}
	if root.Rows != int64(len(res.Rows)) {
		t.Errorf("%s: root span rows %d != result rows %d", name, root.Rows, len(res.Rows))
	}
}

// TestTraceAccountingExact covers every golden and algebra template with
// curated bindings.
func TestTraceAccountingExact(t *testing.T) {
	env := sharedEnv(t)
	for _, g := range append(goldenTemplates(), algebraTemplates()...) {
		st := env.BSBM
		if g.snb {
			st = env.SNB
		}
		bindings := curatedBindings(t, g.tmpl, st, 2)
		if len(bindings) > 2 {
			bindings = bindings[:2]
		}
		for bi, b := range bindings {
			bound, err := g.tmpl.Bind(b)
			if err != nil {
				t.Fatalf("%s binding %d: %v", g.name, bi, err)
			}
			name := fmt.Sprintf("%s/b%d", g.name, bi)
			plain, _, err := exec.Query(bound, st, exec.Options{})
			if err != nil {
				t.Fatalf("%s untraced: %v", name, err)
			}
			capture := &obs.Capture{}
			traced, _, err := exec.Query(bound, st, exec.Options{Trace: capture})
			if err != nil {
				t.Fatalf("%s traced: %v", name, err)
			}
			if err := equalResults(traced, plain); err != nil {
				t.Errorf("%s: tracing changed the run: %v", name, err)
			}
			checkTrace(t, name, capture.Root, traced)
		}
	}
}
