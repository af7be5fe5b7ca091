package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/snb"
)

// atProcs runs f with runtime.GOMAXPROCS set to procs, which sizes the
// analysis worker pool, and restores the previous setting.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestAnalyzeParallelMatchesSerial: the worker pool writes points back by
// binding index, so an analysis must be byte-identical at any worker count
// — one worker included — and so must the parameter classes clustered
// from it.
func TestAnalyzeParallelMatchesSerial(t *testing.T) {
	st, _ := bsbmStore(t)
	q4 := bsbm.Q4()
	dom, err := ExtractDomain(q4, st)
	if err != nil {
		t.Fatal(err)
	}
	var serial *Analysis
	atProcs(1, func() { serial, err = Analyze(q4, st, dom, AnalyzeOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 7} {
		var par *Analysis
		atProcs(procs, func() { par, err = Analyze(q4, st, dom, AnalyzeOptions{}) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Points, par.Points) {
			t.Fatalf("GOMAXPROCS %d: points differ from one worker's", procs)
		}
		if par.Exhaustive != serial.Exhaustive {
			t.Fatalf("GOMAXPROCS %d: exhaustive differs", procs)
		}
		cs, cp := Cluster(serial, ClusterOptions{}), Cluster(par, ClusterOptions{})
		if !reflect.DeepEqual(cs.Classes, cp.Classes) {
			t.Fatalf("GOMAXPROCS %d: parameter classes differ from one worker's", procs)
		}
	}
}

// TestAnalyzeParallelSampledDomain: the deterministic subsample path must
// also agree across worker counts.
func TestAnalyzeParallelSampledDomain(t *testing.T) {
	st, _ := snbStore(t)
	q3 := snb.Q3()
	opts := AnalyzeOptions{MaxBindings: 60, Seed: 9}
	var serial, par *Analysis
	var err error
	atProcs(1, func() { serial, err = Analyze(q3, st, nil, opts) })
	if err != nil {
		t.Fatal(err)
	}
	atProcs(4, func() { par, err = Analyze(q3, st, nil, opts) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Points, par.Points) {
		t.Fatal("sampled-domain points differ between one and four workers")
	}
}

// TestAnalyzeBindingsParallel: the explicit-binding path (joint domains)
// goes through the same pool.
func TestAnalyzeBindingsParallel(t *testing.T) {
	st, _ := snbStore(t)
	q1 := snb.Q1()
	joint, err := ExtractJointDomain(q1, st, 80)
	if err != nil {
		t.Fatal(err)
	}
	var serial, par *Analysis
	atProcs(1, func() { serial, err = AnalyzeBindings(q1, st, joint.Bindings, AnalyzeOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	atProcs(8, func() { par, err = AnalyzeBindings(q1, st, joint.Bindings, AnalyzeOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Points, par.Points) {
		t.Fatal("joint-domain points differ between one and eight workers")
	}
}

// TestAnalyzeParallelErrorPropagates: a failing binding must surface an
// error (not a panic or a silent zero Point) at any worker count.
func TestAnalyzeParallelErrorPropagates(t *testing.T) {
	st, _ := bsbmStore(t)
	dom, err := ExtractDomain(bsbm.Q4(), st)
	if err != nil {
		t.Fatal(err)
	}
	bindings := NewUniformSampler(dom, 1).Sample(16)
	// An empty WHERE clause fails plan.Compile for every binding.
	bad := *bsbm.Q4()
	bad.Where = nil
	for _, procs := range []int{1, 4} {
		atProcs(procs, func() { _, err = AnalyzeBindings(&bad, st, bindings, AnalyzeOptions{}) })
		if err == nil {
			t.Errorf("GOMAXPROCS %d: expected error for empty template", procs)
		}
	}
}
