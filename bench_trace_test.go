package repro

// Tracing-overhead benchmarks. BenchmarkExecTraceOff is the plain run of
// the shared BSBM Q4 binding; BenchmarkExecTraceOn is the same execution
// with a span collector attached. Their delta in the bench artifact is the
// measured cost of EXPLAIN ANALYZE tracing.

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
)

// BenchmarkExecTraceOff times the disabled path: options name no
// collector, so the engine builds the exact pre-trace operator tree.
func BenchmarkExecTraceOff(b *testing.B) {
	benchExecQ4Engine(b, exec.Options{})
}

// BenchmarkExecTraceOn times the same run with per-operator span capture,
// putting the instrumentation cost on record in the bench artifact.
func BenchmarkExecTraceOn(b *testing.B) {
	benchExecQ4Engine(b, exec.Options{Trace: &obs.Capture{}})
}
