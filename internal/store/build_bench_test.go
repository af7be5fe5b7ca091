package store_test

import (
	"runtime"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/store"
)

// BenchmarkBuild times index construction and statistics in isolation
// (dictionary encoding and dedup hoisted out via Rebuild) over the test-
// scale BSBM store: serial runs the six sorts and the statistics passes
// back to back, parallel sorts the permutations concurrently (bounded by
// GOMAXPROCS) with statistics overlapped. The output is byte-identical
// (TestBuildParallelMatchesSerial).
func BenchmarkBuild(b *testing.B) {
	st, _, err := bsbm.BuildStore(bsbm.TestConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		parallelism int
	}{{"serial", 1}, {"parallel", runtime.GOMAXPROCS(0)}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if st.Rebuild(store.BuildOptions{Parallelism: c.parallelism}).Len() != st.Len() {
					b.Fatal("rebuild lost triples")
				}
			}
			b.ReportMetric(float64(st.Len()), "triples")
			b.ReportMetric(float64(c.parallelism), "workers")
		})
	}
}
