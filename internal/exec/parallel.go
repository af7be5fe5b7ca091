package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// This file implements morsel-driven intra-query parallelism (after Leis et
// al., "Morsel-Driven Parallelism", SIGMOD 2014): a parallelism-eligible
// pipeline — a scan→probe/filter/project chain annotated by plan.Lower with
// its partitionable source — is executed by splitting the source scan's
// contiguous index range into fixed-size morsels and running the *entire*
// chain over each morsel on a bounded worker pool. Workers claim morsels
// from a shared atomic counter (dynamic load balancing), accumulate their
// own Cout/Work/Scanned counters, and buffer their output per morsel; the
// driver then merges buffers and counters in morsel order.
//
// Determinism argument: every operator in an eligible pipeline is stateless
// per row, every counter increment is per-tuple (independent of batch
// boundaries), and the morsels partition the source range contiguously — so
// concatenating per-morsel outputs in morsel order reproduces the serial
// operator stream row for row, and summing per-morsel counters in morsel
// order reproduces the serial accounting exactly (all increments are
// integer-valued, far below the 2^53 float64 exactness bound). Rows, row
// order, Cout, Work and Scanned are therefore bit-identical at every worker
// count, which the golden suite asserts at Parallelism ∈ {1, 2, 8}.

// defaultMorselTriples is the source-range morsel size when
// Options.MorselSize is zero.
const defaultMorselTriples = 4096

// morselSize returns the effective morsel size for this run.
func (ex *executor) morselSize() int {
	if ex.opts.MorselSize > 0 {
		return ex.opts.MorselSize
	}
	return defaultMorselTriples
}

// morselize splits n items into contiguous [lo, hi) ranges of at most size
// items. nil when n == 0.
func morselize(n, size int) [][2]int {
	if n <= 0 {
		return nil
	}
	out := make([][2]int, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// workerExecutor clones the run's executor for one morsel: same store,
// context and options (with further nesting disabled), fresh counters and
// no buffers of its own yet.
func (ex *executor) workerExecutor() *executor {
	opts := ex.opts
	opts.Parallelism = 1
	return newExecutor(ex.st, ex.ctx, opts)
}

// mergeOutputs appends per-morsel outputs to dst in morsel order — the one
// merge every parallel operator uses, so the order guarantee cannot drift
// between them.
func mergeOutputs(dst *colRelation, outs []*colRelation) {
	for _, o := range outs {
		for j := range dst.cols {
			dst.cols[j] = append(dst.cols[j], o.cols[j]...)
		}
		dst.n += o.n
	}
}

// mergeMorsels folds the morsels' counters into the run's accounting in
// morsel order and records the schedule (morsel count, peak worker count).
// Under tracing it also attaches the per-morsel breakdown — counter shares
// from the workers plus the timing/worker-id schedule runMorsels recorded —
// to the span whose next() frame is executing.
func (ex *executor) mergeMorsels(morsels []*executor, workers int) {
	for _, w := range morsels {
		ex.cout += w.cout
		ex.work += w.work
		ex.scan += w.scan
		ex.kern.add(w.kern)
	}
	ex.morsels += len(morsels)
	if workers > ex.workers {
		ex.workers = workers
	}
	if tr := ex.trace; tr != nil && tr.cur != nil {
		for i, w := range morsels {
			m := obs.MorselStats{Index: i, Cout: w.cout, Work: w.work, Scanned: int64(w.scan)}
			if i < len(tr.morselNs) {
				m.WallNs = tr.morselNs[i]
				m.Worker = tr.morselWorker[i]
			}
			tr.cur.Morsels = append(tr.cur.Morsels, m)
		}
		if workers > tr.cur.Workers {
			tr.cur.Workers = workers
		}
		tr.morselNs, tr.morselWorker = nil, nil
	}
}

// runMorsels executes fn(wex, i) for every morsel index 0..n-1 across up
// to Parallelism workers: the calling goroutine plus extra workers, each of
// which requires one token TryAcquire'd from Options.Pool when a pool is
// configured (and is skipped, never waited for, when the pool is dry — the
// query always progresses on its own goroutine). Each morsel runs on its
// own worker executor wex. fn must be safe to call concurrently for
// distinct indexes and must store its own output; the first error stops
// all workers after their current morsel. Once every worker has stopped,
// the run adopts the morsels' pooled buffers and, when no morsel failed,
// merges their counters in morsel order.
func (ex *executor) runMorsels(n int, fn func(wex *executor, i int) error) error {
	want := ex.parallelism()
	if want > n {
		want = n
	}
	extra := want - 1
	if pool := ex.opts.Pool; pool != nil {
		got := 0
		for got < extra && pool.TryAcquire() {
			got++
		}
		defer func() {
			for i := 0; i < got; i++ {
				pool.Release()
			}
		}()
		extra = got
	}
	tr := ex.trace
	if tr != nil {
		// Per-morsel schedule for the trace: wall time and worker id,
		// indexed by morsel, consumed by the matching mergeMorsels call.
		// The checks are per-morsel, never per-tuple, and nothing here
		// runs when tracing is off.
		tr.morselNs = make([]int64, n)
		tr.morselWorker = make([]int, n)
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		morsels  = make([]*executor, n)
	)
	worker := func(id int) {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			var start time.Time
			if tr != nil {
				start = time.Now()
			}
			morsels[i] = ex.workerExecutor()
			err := fn(morsels[i], i)
			if tr != nil {
				tr.morselNs[i] = time.Since(start).Nanoseconds()
				tr.morselWorker[i] = id
			}
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				failed.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker(id)
		}(i + 1)
	}
	worker(0)
	wg.Wait()
	for _, m := range morsels {
		if m != nil {
			ex.adopt(m)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	ex.mergeMorsels(morsels, extra+1)
	return nil
}

// --- Sort cancellation -------------------------------------------------------

// sortAbort carries a cancellation error out of a sort comparator via
// panic; recoverSortAbort translates it back into an error return.
type sortAbort struct{ err error }

// lessWithCancel wraps a sort comparator so the run's context is polled
// every cancelCheckRows comparisons; a pending cancellation unwinds the
// sort through a sortAbort panic, caught by recoverSortAbort.
func (ex *executor) lessWithCancel(less func(i, j int) bool) func(i, j int) bool {
	calls := 0
	return func(i, j int) bool {
		calls++
		if calls%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				panic(sortAbort{err})
			}
		}
		return less(i, j)
	}
}

// recoverSortAbort converts a sortAbort panic into *err; other panics
// propagate.
func recoverSortAbort(err *error) {
	if r := recover(); r != nil {
		if sa, ok := r.(sortAbort); ok {
			*err = sa.err
			return
		}
		panic(r)
	}
}

// --- Parallel pipeline operator ----------------------------------------------

// pipeStage is one precompiled operator of an eligible pipeline, bottom
// (source scan) first. Everything here is immutable after construction and
// shared read-only by all workers; per-morsel operator structs are thin
// wrappers binding a stage to a worker executor and a morsel cursor.
type pipeStage struct {
	node    *plan.PhysNode
	outVars []sparql.Var
	scan    scanPlan         // PhysIndexScan
	probe   probePlan        // PhysIndexProbe
	filters []compiledFilter // PhysFilter
	cols    []int            // PhysProject
}

// parallelOp executes a parallelism-eligible pipeline morsel by morsel. It
// is a pipeline breaker from the scheduling standpoint — output is fully
// buffered before the first batch is emitted — but rows, order and
// accounting are bit-identical to the serial chain (see the determinism
// argument at the top of this file): per-morsel chains drain into column
// buffers that merge in morsel order.
type parallelOp struct {
	ex     *executor
	source *plan.CompiledPattern
	stages []pipeStage
	nparts int // morsel count fixed at build time (deterministic)
	ran    bool
	buffered
}

// newParallelOp precompiles the pipeline rooted at top. When the source
// range is too small to split it falls back to the serial operator chain —
// same rows, same accounting, no coordination overhead. Compile errors
// (e.g. a filter naming an unbound variable) surface here, exactly where
// the serial build would raise them.
func (ex *executor) newParallelOp(top *plan.PhysNode) (operator, error) {
	src := top.ParallelSource.Leaf
	stages, err := compilePipeline(top)
	if err != nil {
		return nil, err
	}
	parts := ex.pipelineMorsels(src, len(stages))
	if parts <= 1 {
		return ex.buildNode(top)
	}
	return &parallelOp{ex: ex, source: src, stages: stages, nparts: parts}, nil
}

// pipelineMorsels decides how many morsels to split a pipeline's source
// range into. Large ranges split at MorselSize. A small range driving a
// probe chain still splits — into roughly two morsels per worker — because
// index probes multiply per-row work far beyond the source size (the
// drill-down shape: a handful of vendors each probing hundreds of offers).
// A small bare scan stays serial; splitting it would only pay coordination
// for row extraction. The split depends only on the store and the run's
// options, never on scheduling, so the schedule is deterministic too.
func (ex *executor) pipelineMorsels(src *plan.CompiledPattern, stages int) int {
	total := ex.st.Count(src.Pat)
	size := ex.morselSize()
	if total < size*ex.parallelism() {
		if stages == 1 {
			return 1
		}
		size = (total + 2*ex.parallelism() - 1) / (2 * ex.parallelism())
		if size < 1 {
			size = 1
		}
	}
	return len(morselize(total, size))
}

// compilePipeline walks the chain from top down to its source scan and
// precompiles each stage bottom-up: schemas, scan/probe extraction plans,
// filters and projection columns are computed once and shared by all
// workers.
func compilePipeline(top *plan.PhysNode) ([]pipeStage, error) {
	var chain []*plan.PhysNode
	for n := top; ; n = n.Left {
		chain = append(chain, n)
		if n.Op == plan.PhysIndexScan {
			break
		}
	}
	// Reverse: source first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	stages := make([]pipeStage, len(chain))
	var childVars []sparql.Var
	for i, n := range chain {
		st := pipeStage{node: n}
		switch n.Op {
		case plan.PhysIndexScan:
			st.outVars = n.Leaf.Vars()
			st.scan = buildScanPlan(n.Leaf, st.outVars)
		case plan.PhysIndexProbe:
			st.probe = buildProbePlan(childVars, n.Leaf)
			st.outVars = st.probe.outVars
		case plan.PhysFilter:
			cs, err := compileFilters(childVars, n.Filters)
			if err != nil {
				return nil, err
			}
			st.filters = cs
			st.outVars = childVars
		case plan.PhysProject:
			cols := make([]int, len(n.Vars))
			for j, v := range n.Vars {
				ci := varIndexOf(childVars, v)
				if ci < 0 {
					return nil, fmt.Errorf("exec: SELECT of unbound variable ?%s", v)
				}
				cols[j] = ci
			}
			st.cols = cols
			st.outVars = n.Vars
		default:
			return nil, fmt.Errorf("exec: operator %v inside a parallel pipeline", n.Op)
		}
		stages[i] = st
		childVars = st.outVars
	}
	return stages, nil
}

// buildMorselChain instantiates the pipeline's operator chain for one
// morsel: the shared precompiled stages bound to a worker executor and the
// morsel's cursor.
func buildMorselChain(wex *executor, stages []pipeStage, cursor *store.Scan) operator {
	var op operator
	for i := range stages {
		st := &stages[i]
		switch st.node.Op {
		case plan.PhysIndexScan:
			op = &scanOp{ex: wex, outVars: st.outVars, cursor: cursor, plan: st.scan}
		case plan.PhysIndexProbe:
			op = &probeOp{ex: wex, child: op, plan: st.probe}
		case plan.PhysFilter:
			op = newFilterOp(wex, op, st.filters)
		case plan.PhysProject:
			op = &projectOp{child: op, outVars: st.outVars, cols: st.cols}
		}
	}
	return op
}

func (op *parallelOp) vars() []sparql.Var { return op.stages[len(op.stages)-1].outVars }

func (op *parallelOp) next() (*colBatch, error) {
	if !op.ran {
		op.ran = true
		if err := op.run(); err != nil {
			return nil, err
		}
	}
	return op.nextWindow(op.ex), nil
}

// run fans the source morsels across the worker pool and merges per-morsel
// outputs and counters in morsel order.
func (op *parallelOp) run() error {
	ex := op.ex
	parts := ex.st.ScanPartitions(op.source.Pat, op.nparts)
	if parts == nil {
		return nil
	}
	outs := make([]*colRelation, len(parts))
	err := ex.runMorsels(len(parts), func(wex *executor, i int) error {
		rel, err := wex.drain(buildMorselChain(wex, op.stages, parts[i]))
		outs[i] = rel
		return err
	})
	if err != nil {
		return err
	}
	merged := ex.newRelation(op.vars())
	mergeOutputs(merged, outs)
	op.out = merged
	return nil
}
