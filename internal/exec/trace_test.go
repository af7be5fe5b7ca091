package exec

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sparql"
)

// Zero-overhead guarantee for the disabled path: with Options.Trace nil
// the engine must build the exact pre-trace operator tree (no wrapper
// operators anywhere) and a run must not allocate one byte more than a
// run that never heard of tracing.

const traceTestQuery = `SELECT ?f ?d WHERE {
  <http://x/alice> <http://x/knows> ?f .
  ?p <http://x/creator> ?f .
  ?p <http://x/date> ?d .
}`

// assertNoTraceWrappers walks the full object graph reachable from the
// operator tree (children live in unexported fields, so the walk is by
// reflection) and fails if any traced wrapper is found.
func assertNoTraceWrappers(t *testing.T, root interface{}) {
	t.Helper()
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Ptr:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			switch v.Type().Name() {
			case "tracedOp":
				t.Fatalf("untraced build produced a %s wrapper", v.Type().Name())
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for _, k := range v.MapKeys() {
				walk(v.MapIndex(k))
			}
		}
	}
	walk(reflect.ValueOf(root))
}

// TestTraceDisabledBuildsNoWrappers proves the structural half of the
// zero-overhead claim: nil collector means the operator tree contains no
// traced wrapper at any depth, while a non-nil collector roots the tree in
// one.
func TestTraceDisabledBuildsNoWrappers(t *testing.T) {
	st := buildSocialStore(t)
	q := sparql.MustParse(traceTestQuery)
	c, err := plan.Compile(q, st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		t.Fatal(err)
	}
	phys, err := plan.Lower(c, p)
	if err != nil {
		t.Fatal(err)
	}
	ex := &executor{st: st, ctx: context.Background()}
	root, err := ex.build(phys.Root)
	if err != nil {
		t.Fatal(err)
	}
	assertNoTraceWrappers(t, root)

	// Sanity: the same build with a collector roots in a wrapper, so the
	// walker genuinely detects them.
	tex := &executor{st: st, ctx: context.Background(), trace: &traceState{}}
	troot, err := tex.build(phys.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := troot.(*tracedOp); !ok {
		t.Fatalf("traced build returned %T, want *tracedOp", troot)
	}
}

// TestTraceDisabledZeroExtraAllocs proves the allocation half: a run with
// an explicitly-nil collector allocates exactly as much as a run whose
// options never mention tracing. The traced run is measured too as a sensitivity check
// — if instrumenting didn't move the needle, the zero-delta assertions
// above would be vacuous.
func TestTraceDisabledZeroExtraAllocs(t *testing.T) {
	st := buildSocialStore(t)
	q := sparql.MustParse(traceTestQuery)
	c, err := plan.Compile(q, st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		t.Fatal(err)
	}
	measure := func(opts Options) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := Run(c, p, st, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	baseline := measure(Options{})
	off := measure(Options{Trace: nil})
	if off != baseline {
		t.Errorf("nil-trace run allocates %v, baseline %v (want identical)", off, baseline)
	}
	on := measure(Options{Trace: &obs.Capture{}})
	if on <= baseline {
		t.Errorf("traced run allocates %v <= baseline %v; allocation probe is not sensitive", on, baseline)
	}
}

// TestTraceCollectorReceivesFinalizedTree exercises the collector contract
// end to end inside the package: the collected root is finalized (Self*
// populated, totals matching the Result).
func TestTraceCollectorReceivesFinalizedTree(t *testing.T) {
	st := buildSocialStore(t)
	capture := &obs.Capture{}
	res := run(t, st, traceTestQuery, Options{Trace: capture})
	root := capture.Root
	if root == nil {
		t.Fatal("no trace collected")
	}
	if root.Cout != res.Cout || root.Work != res.Work || root.Scanned != int64(res.Scanned) {
		t.Fatalf("root span (cout=%v work=%v scanned=%d) != result (cout=%v work=%v scanned=%d)",
			root.Cout, root.Work, root.Scanned, res.Cout, res.Work, res.Scanned)
	}
	cout, work, scanned := obs.Sum(root)
	if cout != res.Cout || work != res.Work || scanned != int64(res.Scanned) {
		t.Fatalf("Self* sum (cout=%v work=%v scanned=%d) != result (cout=%v work=%v scanned=%d)",
			cout, work, scanned, res.Cout, res.Work, res.Scanned)
	}
}
