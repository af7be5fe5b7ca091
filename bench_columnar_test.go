package repro

// Columnar-engine and worst-case-optimal-join benchmarks.
//
// BenchmarkColumnarFilter times the branch-reduced filter kernel over a
// dense integer column. BenchmarkLeapfrogStar3/5 put the PR's acceptance
// claim in the bench artifact: on star BGPs whose binary plans must
// materialize a large pairwise intermediate, the leapfrog triejoin's
// measured Cout/Work are asymptotically smaller — reported as custom
// metrics so the single-core CI box verifies the advantage without
// trusting wall clock.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// benchRunQuery hoists parse+compile+optimize and returns a closure that
// executes the plan with the given options (the part the benchmarks time).
func benchRunQuery(b *testing.B, st *store.Store, src string, opts exec.Options) func() *exec.Result {
	b.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	c, err := plan.Compile(q, st)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		b.Fatal(err)
	}
	return func() *exec.Result {
		res, err := exec.Run(c, p, st, opts)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
}

// BenchmarkColumnarFilter times the columnar filter kernel: one scan
// feeding two range predicates over a dense integer column, where the
// second filter reuses the selection vector the first one refined.
func BenchmarkColumnarFilter(b *testing.B) {
	const n = 20000
	sb := store.NewBuilder()
	val := rdf.NewIRI("http://x/value")
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/item%05d", i))
		if err := sb.Add(rdf.NewTriple(s, val, rdf.NewInteger(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
	st := sb.Build()
	src := `SELECT * WHERE { ?s <http://x/value> ?x . FILTER(?x >= 5000) FILTER(?x < 15000) }`
	run := benchRunQuery(b, st, src, exec.Options{})
	b.ResetTimer()
	var res *exec.Result
	for i := 0; i < b.N; i++ {
		res = run()
	}
	b.ReportMetric(float64(len(res.Rows)), "rows")
	b.ReportMetric(float64(res.Kernels.FilterRows), "filter-rows")
	b.ReportMetric(float64(res.Kernels.Batches), "batches")
}

// buildBenchStarStore builds a store where every binary join order over a
// k-pattern star materializes a large intermediate: k classes of n hubs
// each carry all but one of the k predicates (so every proper subset of
// patterns has >= n matching hubs), while only nFull hubs carry all k.
func buildBenchStarStore(b *testing.B, k, n, nFull int) *store.Store {
	b.Helper()
	sb := store.NewBuilder()
	add := func(s, p, o rdf.Term) {
		if err := sb.Add(rdf.NewTriple(s, p, o)); err != nil {
			b.Fatal(err)
		}
	}
	for class := 0; class < k; class++ {
		for i := 0; i < n; i++ {
			h := rdf.NewIRI(fmt.Sprintf("http://x/hub%d-%05d", class, i))
			for pi := 0; pi < k; pi++ {
				if pi == class {
					continue // each class misses one predicate
				}
				add(h, rdf.NewIRI(fmt.Sprintf("http://x/p%d", pi)),
					rdf.NewIRI(fmt.Sprintf("http://x/leaf%d-%d-%05d", pi, class, i)))
			}
		}
	}
	for i := 0; i < nFull; i++ {
		h := rdf.NewIRI(fmt.Sprintf("http://x/full%05d", i))
		for pi := 0; pi < k; pi++ {
			add(h, rdf.NewIRI(fmt.Sprintf("http://x/p%d", pi)),
				rdf.NewIRI(fmt.Sprintf("http://x/fleaf%d-%05d", pi, i)))
		}
	}
	return sb.Build()
}

// starQuerySrc returns a k-pattern star BGP on one hub variable.
func starQuerySrc(k int) string {
	src := "SELECT * WHERE {\n"
	for pi := 0; pi < k; pi++ {
		src += fmt.Sprintf("  ?h <http://x/p%d> ?v%d .\n", pi, pi)
	}
	return src + "}"
}

// benchLeapfrogStar times the k-pattern star under the leapfrog triejoin
// and reports its Cout/Work next to the binary-join plan's, measured once
// outside the timed loop. The acceptance claim is cout-leapfrog ≪
// cout-binary (the triejoin intersects all k hub sets at trie level 0 and
// never materializes a pairwise intermediate), which the committed bench
// artifact records as counters rather than wall clock.
func benchLeapfrogStar(b *testing.B, k int) {
	st := buildBenchStarStore(b, k, 1200, 40)
	src := starQuerySrc(k)
	binary := benchRunQuery(b, st, src, exec.Options{})()
	run := benchRunQuery(b, st, src, exec.Options{Leapfrog: true})
	b.ResetTimer()
	var res *exec.Result
	for i := 0; i < b.N; i++ {
		res = run()
	}
	if len(res.Rows) != len(binary.Rows) {
		b.Fatalf("leapfrog rows = %d, binary rows = %d", len(res.Rows), len(binary.Rows))
	}
	if res.Cout*10 >= binary.Cout || res.Work*10 >= binary.Work {
		b.Fatalf("no asymptotic advantage: leapfrog cout=%v work=%v vs binary cout=%v work=%v",
			res.Cout, res.Work, binary.Cout, binary.Work)
	}
	b.ReportMetric(float64(len(res.Rows)), "rows")
	b.ReportMetric(res.Cout, "cout-leapfrog")
	b.ReportMetric(binary.Cout, "cout-binary")
	b.ReportMetric(res.Work, "work-leapfrog")
	b.ReportMetric(binary.Work, "work-binary")
	b.ReportMetric(float64(res.Kernels.LeapfrogSeeks), "trie-seeks")
}

// BenchmarkLeapfrogStar3 runs the three-pattern star join.
func BenchmarkLeapfrogStar3(b *testing.B) { benchLeapfrogStar(b, 3) }

// BenchmarkLeapfrogStar5 runs the five-pattern star join — the acceptance
// benchmark: every binary order materializes a >= 1200-row intermediate
// while the triejoin emits the 40 results directly.
func BenchmarkLeapfrogStar5(b *testing.B) { benchLeapfrogStar(b, 5) }

// BenchmarkExecColumnarMapped runs the serial drill-down over an
// mmap-style v4-backed store instead of heap indexes: same plan, same rows
// and accounting as BenchmarkExecParallel1, with scans going through the
// bounds-checked mapped TripleSource. The gap between the two is the cost
// of serving the hot path straight from a snapshot file.
func BenchmarkExecColumnarMapped(b *testing.B) {
	heap, binding := benchParallelSetup(b)
	var buf bytes.Buffer
	if err := heap.WriteSnapshotVersion(&buf, 4); err != nil {
		b.Fatal(err)
	}
	st, err := store.OpenMappedBytes(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	if st.Backend() != "mapped" {
		b.Fatalf("backend = %q, want mapped", st.Backend())
	}
	bound, err := bsbm.Q3().Bind(binding)
	if err != nil {
		b.Fatal(err)
	}
	c, err := plan.Compile(bound, st)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		b.Fatal(err)
	}
	opts := exec.Options{}
	b.ResetTimer()
	var res *exec.Result
	for i := 0; i < b.N; i++ {
		res, err = exec.Run(c, p, st, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Rows)), "rows")
	b.ReportMetric(res.Work, "work")
	b.ReportMetric(float64(res.Kernels.Batches), "batches")
	b.ReportMetric(float64(st.MappedBytes()), "mapped-bytes")
}
