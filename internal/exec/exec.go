// Package exec evaluates optimized query plans against a store. There is
// one engine: it builds one operator per node of the physical tree that
// plan.Optimize lowered and checked, and the operators pull columnar
// batches — dense per-variable ID columns with optional selection vectors
// — through it. The tree is read-only here, so concurrent runs share a
// cached plan, and a run fails only when its context is done. Index scans
// stream straight out of the hexastore, index-nested-loop probes and
// filters are pipelined, and only the blocking operators (hash, cross and
// left joins, ORDER BY, aggregation) buffer their inputs.
//
// Every run records the measured Cout exactly (the sizes of all join
// outputs) and accumulates a deterministic "work" counter (tuples scanned,
// hashed, probed, emitted, sorted) that serves as a noise-free runtime proxy
// alongside wall-clock time; the paper's Cout-vs-runtime correlation
// (Section III) is reproduced against both. The reference for rows and
// accounting is not a second engine: internal/experiments/testdata/golden.json
// freezes them for every benchmark template and curated binding, and
// internal/difftest's naive oracle re-derives every result row from the
// query text alone.
package exec

import (
	"context"
	"time"

	"repro/internal/dict"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// ExecMode names the execution engine; Columnar is the only one. The type
// and Options.Mode survive as a single-valued shim because the frozen
// benchmark harness (bench/main.go) assigns Options.Mode from
// service.ParseEngineMode. The benchmark-only follow-up that may edit bench/
// deletes both (ROADMAP item 7(f)).
type ExecMode uint8

// Columnar is the columnar engine, and the zero value.
const Columnar ExecMode = 0

// Options configures execution.
type Options struct {
	// Mode is ignored; see ExecMode.
	Mode ExecMode
	// EarlyStop lets LIMIT terminate the pipeline as soon as the limit is
	// reached instead of draining its input to exhaustion. Final rows are
	// unchanged, but the Cout/Work/Scanned accounting reflects only the
	// tuples actually touched, so it is no longer comparable to a draining
	// run. Off by default (all paper experiments keep the draining
	// behavior); the query service turns it on.
	EarlyStop bool
	// Leapfrog is ignored. It survives as a shim, like Mode, because the
	// frozen benchmark harness (bench/main.go) assigns it from
	// service.EngineStats.Leapfrog; the benchmark-only follow-up that may
	// edit bench/ deletes both (ROADMAP item 7(f)).
	Leapfrog bool
	// Trace, when non-nil, receives the run's execution trace: every
	// physical operator is wrapped in a span recording wall time, rows and
	// batches emitted, and the exact Cout/Work/Scanned deltas of its
	// subtree. The finalized span tree is handed to the collector once the
	// run completes. Tracing never changes results or accounting; the
	// root span's inclusive totals equal this Result's Cout/Work/Scanned
	// bit-for-bit. When nil (the default) the engine builds the exact
	// untraced operator tree — no wrappers, no per-tuple checks, no
	// allocations on the hot path.
	Trace obs.Collector
}

// Result is the outcome of one query execution.
type Result struct {
	Vars     []sparql.Var  // output column schema, shared with the plan: read-only
	Rows     [][]dict.ID   // result tuples (projected, de-duplicated, ordered, limited)
	Cout     float64       // measured sum of all join-output sizes (the paper's cost function)
	Work     float64       // deterministic work units: scanned + built + probed + emitted tuples
	Duration time.Duration // wall-clock execution time
	Scanned  int           // tuples read from indexes
	// Kernels counts kernel activity. It mostly describes how the engine
	// ran, not what it computed, and is excluded from the bit-identical
	// golden comparison.
	Kernels KernelStats
}

// KernelStats counts the work done by the batch kernels, plus
// the compositional-algebra operator counters (LeftJoinRows, UnionRows,
// AggGroups), which are logical counts independent of batching.
type KernelStats struct {
	Batches       int // column batches emitted by operators
	FilterRows    int // rows evaluated by the filter kernel
	HashProbeRows int // rows probed by the hash-join and left-join kernels
	GatherRows    int // rows compacted/gathered through selection vectors
	LeftJoinRows  int // rows emitted by left outer joins (OPTIONAL)
	UnionRows     int // rows emitted by union operators
	AggGroups     int // groups emitted by aggregation operators
}

// executor carries per-run state.
type executor struct {
	st   store.Source
	ctx  context.Context
	opts Options
	cout float64
	work float64
	scan int
	kern KernelStats
	// trace is the run's tracing context; nil unless Options.Trace is set.
	trace *traceState
	// ids, sels and keys record the pooled buffers the run holds
	// (buffers.go), in the inline arrays below until a run needs more.
	ids     loans[dict.ID]
	sels    loans[int32]
	keys    loans[orderKey]
	idsBuf  [16]loan[dict.ID]
	selsBuf [4]loan[int32]
	keysBuf [1]loan[orderKey]
	// rowBuf gathers the result rows before run cuts them into Result.Rows.
	rowBuf []dict.ID
}

// newExecutor returns an executor for one run.
func newExecutor(st store.Source, ctx context.Context, opts Options) *executor {
	ex := &executor{st: st, ctx: ctx, opts: opts}
	ex.ids, ex.sels, ex.keys = ex.idsBuf[:0], ex.selsBuf[:0], ex.keysBuf[:0]
	return ex
}

// cancelled returns the context's error once the run's context is done.
// Operators check it per batch, and the blocking join/sort kernels check
// it every cancelCheckRows tuples, so a dropped client aborts both a
// pipelined pull and a pipeline breaker mid-build within bounded work.
func (ex *executor) cancelled() error {
	if ex.ctx == nil {
		return nil
	}
	return ex.ctx.Err()
}

// cancelCheckRows is how many tuples a blocking kernel (hash build/probe,
// cross product, sort) processes between context polls.
const cancelCheckRows = 4096

// Run executes the plan p against st. The compiled query c is not read: p
// carries its physical operator tree. The parameter survives as a shim
// because the frozen benchmark harness (bench/trace.go) calls RunCtx with
// it; the benchmark-only follow-up that may edit bench/ drops it (ROADMAP
// item 7(f)).
func Run(c *plan.Compiled, p *plan.Plan, st store.Source, opts Options) (*Result, error) {
	return RunCtx(context.Background(), c, p, st, opts)
}

// RunCtx is Run under a context: cancelling ctx aborts the execution at the
// next operator batch boundary and returns the context's error, the only
// error a run returns. The accounting of a completed (non-cancelled) run
// is identical to Run's. Like Run, it does not read c.
func RunCtx(ctx context.Context, c *plan.Compiled, p *plan.Plan, st store.Source, opts Options) (*Result, error) {
	start := time.Now()
	ex := newExecutor(st, ctx, opts)
	if opts.Trace != nil {
		ex.trace = &traceState{}
	}
	// run has copied the rows out of every pooled buffer by the time it
	// returns, whichever way it returns.
	defer ex.release()
	vars, rows, err := ex.run(p)
	if err != nil {
		return nil, err
	}
	if ex.trace != nil {
		ex.finishTrace()
	}
	return &Result{
		Vars:     vars,
		Rows:     rows,
		Cout:     ex.cout,
		Work:     ex.work,
		Duration: time.Since(start),
		Scanned:  ex.scan,
		Kernels:  ex.kern,
	}, nil
}
