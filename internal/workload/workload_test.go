package workload

import (
	"testing"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sparql"
	"repro/internal/store"
)

func testRunner(t testing.TB) (*Runner, *store.Store) {
	t.Helper()
	st, _, err := bsbm.BuildStore(bsbm.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &Runner{Store: st, Opts: exec.Options{}}, st
}

func TestRunOnce(t *testing.T) {
	r, st := testRunner(t)
	dom, err := core.ExtractDomain(bsbm.Q4(), st)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.RunOnce(bsbm.Q4(), dom.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Signature == "" || m.Work <= 0 {
		t.Fatalf("measurement incomplete: %+v", m)
	}
	if m.Runtime <= 0 {
		t.Fatal("zero runtime")
	}
}

func TestRunOnceErrors(t *testing.T) {
	r, _ := testRunner(t)
	// Missing binding.
	if _, err := r.RunOnce(bsbm.Q4(), sparql.Binding{}); err == nil {
		t.Fatal("expected bind error")
	}
}

func TestRunSeries(t *testing.T) {
	r, st := testRunner(t)
	dom, err := core.ExtractDomain(bsbm.Q4(), st)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewUniformSampler(dom, 1)
	ms, err := r.Run(bsbm.Q4(), s.Sample(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 20 {
		t.Fatalf("measurements = %d", len(ms))
	}
	sum := Summarize(ms, MetricWork)
	if sum.N != 20 || sum.Max < sum.Min {
		t.Fatalf("summary wrong: %+v", sum)
	}
	if len(Values(ms, MetricCout)) != 20 {
		t.Fatal("Values length wrong")
	}
	plans := DistinctPlans(ms)
	total := 0
	for _, n := range plans {
		total += n
	}
	if total != 20 {
		t.Fatalf("plan counts sum to %d", total)
	}
}

func TestGroupStability(t *testing.T) {
	r, st := testRunner(t)
	dom, err := core.ExtractDomain(bsbm.Q4(), st)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewUniformSampler(dom, 42)
	res, err := r.GroupStability(bsbm.Q4(), s, 3, 15, MetricWork)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	for _, g := range res.Groups {
		if g.Summary.N != 15 {
			t.Fatalf("group size = %d", g.Summary.N)
		}
	}
	if res.AvgDeviation < 0 || res.MedianDeviation < 0 {
		t.Fatal("negative deviation")
	}
	// Bad arguments.
	if _, err := r.GroupStability(bsbm.Q4(), s, 1, 10, MetricWork); err == nil {
		t.Fatal("expected error for k < 2")
	}
	if _, err := r.GroupStability(bsbm.Q4(), s, 2, 0, MetricWork); err == nil {
		t.Fatal("expected error for n < 1")
	}
}

func TestMetricRuntimePositive(t *testing.T) {
	r, st := testRunner(t)
	dom, err := core.ExtractDomain(bsbm.Q4(), st)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.RunOnce(bsbm.Q4(), dom.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if MetricRuntime(m) <= 0 {
		t.Fatal("runtime metric should be positive")
	}
	if MetricCout(m) != m.Cout {
		t.Fatal("cout metric mismatch")
	}
}

func TestRepetitionsBestOfK(t *testing.T) {
	r, st := testRunner(t)
	r.Repetitions = 3
	dom, err := core.ExtractDomain(bsbm.Q4(), st)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.RunOnce(bsbm.Q4(), dom.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Runtime <= 0 {
		t.Fatal("best-of-k runtime should be positive")
	}
	// Work is deterministic: a single-rep run must agree.
	r1 := &Runner{Store: st, Opts: exec.Options{}}
	m1, err := r1.RunOnce(bsbm.Q4(), dom.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Work != m1.Work || m.Cout != m1.Cout {
		t.Fatalf("repetitions changed deterministic metrics: %v/%v vs %v/%v",
			m.Work, m.Cout, m1.Work, m1.Cout)
	}
}
