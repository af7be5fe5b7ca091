package experiments

// Ablations of the design choices the experiments rest on. Each reports
// its result as custom metrics; no table of cmd/repro prints them.

import (
	"testing"

	"repro/internal/bsbm"
	"repro/internal/core"
)

// BenchmarkAblationEpsilon sweeps the cost-band width ε and reports the
// class-count sensitivity for Q4.
func BenchmarkAblationEpsilon(b *testing.B) {
	e := sharedEnv(b)
	a, err := core.Analyze(bsbm.Q4(), e.BSBM, nil, core.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var n025, n100, n300 int
	for i := 0; i < b.N; i++ {
		n025 = len(core.Cluster(a, core.ClusterOptions{Epsilon: 0.25}).Classes)
		n100 = len(core.Cluster(a, core.ClusterOptions{Epsilon: 1.0}).Classes)
		n300 = len(core.Cluster(a, core.ClusterOptions{Epsilon: 3.0}).Classes)
	}
	b.ReportMetric(float64(n025), "classes-eps0.25")
	b.ReportMetric(float64(n100), "classes-eps1.0")
	b.ReportMetric(float64(n300), "classes-eps3.0")
}
