package store_test

import (
	"testing"

	"repro/internal/bsbm"
)

// BenchmarkBuild times index construction and statistics in isolation
// (dictionary encoding and dedup hoisted out via Rebuild) over the test-
// scale BSBM store: the six permutations sort concurrently (bounded by
// GOMAXPROCS) with the statistics passes overlapped. Run it with -cpu to
// compare worker counts; the output is byte-identical at any of them
// (TestBuildParallelMatchesSerial).
func BenchmarkBuild(b *testing.B) {
	st, _, err := bsbm.BuildStore(bsbm.TestConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if st.Rebuild().Len() != st.Len() {
			b.Fatal("rebuild lost triples")
		}
	}
	b.ReportMetric(float64(st.Len()), "triples")
}
