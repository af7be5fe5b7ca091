// Package exec evaluates optimized query plans against a store. There is
// one engine: plan.Lower turns the logical plan into a physical operator
// tree, and the operators pull columnar batches — dense per-variable ID
// columns with optional selection vectors — through it. Index scans stream
// straight out of the hexastore, index-nested-loop probes and filters are
// pipelined, and only the blocking operators (hash, merge, cross and left
// joins, ORDER BY, aggregation, the leapfrog triejoin) buffer their inputs.
// Parallelism-eligible pipelines run morsel by morsel across workers
// (parallel.go) with results bit-identical to the serial run.
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

// JoinAlgorithm selects the physical join operator.
type JoinAlgorithm uint8

const (
	// HashJoin builds a hash table on the smaller input (default).
	HashJoin JoinAlgorithm = iota
	// SortMergeJoin sorts both inputs on the join key and merges.
	SortMergeJoin
)

// ExecMode names the execution engine; Columnar is the only one. The type
// and Options.Mode survive as a single-valued shim because the frozen
// benchmark harness (bench/main.go) assigns Options.Mode from
// service.ParseEngineMode. The benchmark-only follow-up that may edit bench/
// deletes both (ROADMAP item 9).
type ExecMode uint8

// Columnar is the columnar engine, and the zero value.
const Columnar ExecMode = 0

// Options configures execution.
type Options struct {
	Join JoinAlgorithm
	// Mode is ignored; see ExecMode.
	Mode ExecMode
	// PushFilters has plan.Lower place each single-variable filter of a
	// BGP query at the lowest operator whose schema covers it (algebra
	// queries already scope filters to their group). It prunes intermediate
	// results early, so measured Cout shrinks and is no longer comparable to
	// the unpushed plans; final rows are unchanged. Off by default to keep
	// the paper's cost accounting exact.
	PushFilters bool
	// EarlyStop lets LIMIT terminate the pipeline as soon as the limit is
	// reached instead of draining its input to exhaustion. Final rows are
	// unchanged, but the Cout/Work/Scanned accounting reflects only the
	// tuples actually touched, so it is no longer comparable to a draining
	// run. Off by default (all paper experiments keep the draining
	// behavior); the query service turns it on.
	EarlyStop bool
	// Parallelism is the per-query worker budget for morsel-driven
	// intra-query parallelism: parallelism-eligible pipelines (see
	// plan.PhysNode.ParallelSource) fan their source morsels across up to
	// this many workers, and hash joins probe their shared read-only build
	// table from up to this many workers. Results — rows, row order and the
	// full Cout/Work/Scanned accounting — are bit-identical to Parallelism
	// <= 1 (per-morsel outputs and counters are merged in morsel order, and
	// every counter increment is per-tuple, independent of batching). 0 or
	// 1 (the default) executes serially, preserving paper-experiment
	// semantics exactly.
	//
	// One caveat: a parallel pipeline runs its morsels to completion before
	// anything downstream observes output, so under EarlyStop a LIMIT can
	// no longer cut a pipeline short mid-stream — rows are unchanged but
	// the accounting may exceed the serial EarlyStop run's. With EarlyStop
	// off (the default), accounting is bit-identical at every worker count.
	Parallelism int
	// MorselSize is the number of source triples per morsel (0 = 4096).
	// Smaller morsels improve load balancing and let small inputs exercise
	// the parallel path; the choice never affects results or accounting.
	MorselSize int
	// Leapfrog enables the worst-case-optimal leapfrog triejoin for
	// eligible star/cyclic BGPs (see plan.PhysOptions.Leapfrog). A leapfrog
	// run emits rows in global trie order and counts only the multiway
	// join's final output toward Cout, so its results equal the binary
	// plans' as multisets (asserted against the differential suite's
	// oracle) but not the golden fixture's rows and accounting.
	Leapfrog bool
	// Pool, when set, is the shared CPU budget the executor draws extra
	// workers from: each worker beyond the query's own goroutine requires
	// one TryAcquire'd token, released when the pipeline finishes. A query
	// always makes progress on its own goroutine even when the pool is
	// exhausted — Parallelism is then a ceiling, not a demand. The query
	// service points this at its admission pool so intra-query workers and
	// concurrent queries respect one budget.
	Pool *TokenPool
	// Trace, when non-nil, receives the run's execution trace: every
	// physical operator is wrapped in a span recording wall time, rows and
	// batches emitted, the exact Cout/Work/Scanned deltas of its subtree,
	// and — for morsel-driven parallel operators — a per-morsel/per-worker
	// breakdown. The finalized span tree is handed to the collector once
	// the run completes. Tracing never changes results or accounting; the
	// root span's inclusive totals equal this Result's Cout/Work/Scanned
	// bit-for-bit. When nil (the default) the engine builds the exact
	// untraced operator tree — no wrappers, no per-tuple checks, no
	// allocations on the hot path.
	Trace obs.Collector
}

// Result is the outcome of one query execution.
type Result struct {
	Vars     []sparql.Var  // output column schema
	Rows     [][]dict.ID   // result tuples (projected, de-duplicated, ordered, limited)
	Cout     float64       // measured sum of all join-output sizes (the paper's cost function)
	Work     float64       // deterministic work units: scanned + built + probed + emitted tuples
	Duration time.Duration // wall-clock execution time
	Scanned  int           // tuples read from indexes
	// Morsels is the number of source morsels executed by parallel
	// operators (0 when the query ran serially). Excluded from the
	// bit-identical golden comparison: it describes the schedule, not the
	// result.
	Morsels int
	// Workers is the largest worker count any parallel operator of this
	// query ran with (0 when the query ran serially). Like Morsels it
	// describes the schedule; the service aggregates it into per-query
	// worker-utilization stats.
	Workers int
	// Kernels counts kernel activity. Like Morsels and Workers it mostly
	// describes how the engine ran, not what it computed, and is excluded
	// from the bit-identical golden comparison (LeapfrogSeeks additionally
	// depends on partitioning).
	Kernels KernelStats
}

// KernelStats counts the work done by the batch and leapfrog kernels, plus
// the compositional-algebra operator counters (LeftJoinRows, UnionRows,
// AggGroups), which are logical counts independent of the schedule.
type KernelStats struct {
	Batches       int // column batches emitted by operators
	FilterRows    int // rows evaluated by the filter kernel
	HashProbeRows int // rows probed by the hash-join and left-join kernels
	MergeRows     int // rows emitted by the merge-join kernel
	GatherRows    int // rows compacted/gathered through selection vectors
	LeapfrogSeeks int // trie-cursor seeks issued by leapfrog searches
	LeapfrogRows  int // rows emitted by the leapfrog multiway join
	LeftJoinRows  int // rows emitted by left outer joins (OPTIONAL)
	UnionRows     int // rows emitted by union operators
	AggGroups     int // groups emitted by aggregation operators
}

// add accumulates other into s (used by the morsel-order counter merge).
func (s *KernelStats) add(o KernelStats) {
	s.Batches += o.Batches
	s.FilterRows += o.FilterRows
	s.HashProbeRows += o.HashProbeRows
	s.MergeRows += o.MergeRows
	s.GatherRows += o.GatherRows
	s.LeapfrogSeeks += o.LeapfrogSeeks
	s.LeapfrogRows += o.LeapfrogRows
	s.LeftJoinRows += o.LeftJoinRows
	s.UnionRows += o.UnionRows
	s.AggGroups += o.AggGroups
}

// executor carries per-run state.
type executor struct {
	st      store.Source
	ctx     context.Context
	opts    Options
	cout    float64
	work    float64
	scan    int
	morsels int // morsels executed by parallel operators
	workers int // max workers any parallel operator ran with
	kern    KernelStats
	// trace is the run's tracing context; nil unless Options.Trace is set.
	// Worker executors never carry one — their counters reach the tracing
	// run through the morsel-order merge.
	trace *traceState
	// ids and sels record the pooled buffers the run holds (buffers.go),
	// in the inline arrays below until a run needs more.
	ids     loans[dict.ID]
	sels    loans[int32]
	idsBuf  [16]loan[dict.ID]
	selsBuf [4]loan[int32]
	// rowBuf gathers the result rows before run cuts them into Result.Rows.
	rowBuf []dict.ID
}

// newExecutor returns an executor for one run (or one morsel of it).
func newExecutor(st store.Source, ctx context.Context, opts Options) *executor {
	ex := &executor{st: st, ctx: ctx, opts: opts}
	ex.ids, ex.sels = ex.idsBuf[:0], ex.selsBuf[:0]
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
// merge, cross product, sort) processes between context polls.
const cancelCheckRows = 4096

// parallelism returns the effective worker ceiling for this run.
func (ex *executor) parallelism() int {
	if ex.opts.Parallelism < 1 {
		return 1
	}
	return ex.opts.Parallelism
}

// Run executes the plan p for compiled query c against st.
func Run(c *plan.Compiled, p *plan.Plan, st store.Source, opts Options) (*Result, error) {
	return RunCtx(context.Background(), c, p, st, opts)
}

// RunCtx is Run under a context: cancelling ctx aborts the execution at the
// next operator batch boundary and returns the context's error. The
// accounting of a completed (non-cancelled) run is identical to Run's.
func RunCtx(ctx context.Context, c *plan.Compiled, p *plan.Plan, st store.Source, opts Options) (*Result, error) {
	start := time.Now()
	ex := newExecutor(st, ctx, opts)
	if opts.Trace != nil {
		ex.trace = &traceState{}
	}
	// run has copied the rows out of every pooled buffer by the time it
	// returns, whichever way it returns.
	defer ex.release()
	vars, rows, err := ex.run(c, p)
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
		Morsels:  ex.morsels,
		Workers:  ex.workers,
		Kernels:  ex.kern,
	}, nil
}
