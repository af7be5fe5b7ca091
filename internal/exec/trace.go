package exec

import (
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sparql"
)

// This file threads the obs execution-trace layer through the engine.
// Tracing is strictly opt-in: when Options.Trace is nil the build paths
// never touch this file, so the disabled hot path is byte-for-byte the
// untraced operator tree (no wrapper operators, no per-tuple branches, no
// allocations — asserted by the zero-overhead tests).
//
// When a collector is set, build() wraps every operator it constructs in a
// traced wrapper that records, per next() call, the wall time inside the
// call and the deltas of the run's Cout/Work/Scanned counters across it.
// Every counter increment happens inside some operator's next() frame, so
// the deltas are inclusive of the operator's subtree and the root span's
// totals equal the Result's
// accounting exactly (all increments are per-tuple integers below the
// 2^53 float64 exactness bound). obs.Finalize later derives per-operator
// exclusive values.

// traceState is the per-run tracing context: the span tree under
// construction and, while build() runs, the span new children attach to.
type traceState struct {
	root *obs.Span
	cur  *obs.Span
}

// openSpan creates the span for physical node n under the current parent
// (or as the root) and makes it current. The caller must restore the
// previous current span when its subtree is built.
func (ts *traceState) openSpan(n *plan.PhysNode) *obs.Span {
	s := &obs.Span{Op: n.Op.String(), Detail: n.Describe()}
	if ts.cur == nil {
		ts.root = s
	} else {
		ts.cur.Children = append(ts.cur.Children, s)
	}
	ts.cur = s
	return s
}

// buildTraced is build() with tracing on: it opens a span mirroring the
// physical node, builds the operator (children nest under the span), and
// wraps the result so execution records into it.
func (ex *executor) buildTraced(n *plan.PhysNode) (operator, error) {
	ts := ex.trace
	parent := ts.cur
	span := ts.openSpan(n)
	defer func() { ts.cur = parent }()
	op, err := ex.buildNode(n)
	if err != nil {
		return nil, err
	}
	return &tracedOp{ex: ex, child: op, span: span}, nil
}

// tracedOp wraps an operator: each next() call is timed and the run's
// counter deltas across it are credited to the span (inclusive of nested
// wrapped children). Rows counts live rows (selection vectors applied).
type tracedOp struct {
	ex    *executor
	child operator
	span  *obs.Span
}

func (op *tracedOp) vars() []sparql.Var { return op.child.vars() }

func (op *tracedOp) next() (*colBatch, error) {
	ex := op.ex
	cout0, work0, scan0 := ex.cout, ex.work, ex.scan
	start := time.Now()
	b, err := op.child.next()
	op.span.WallNs += time.Since(start).Nanoseconds()
	op.span.Cout += ex.cout - cout0
	op.span.Work += ex.work - work0
	op.span.Scanned += int64(ex.scan - scan0)
	op.span.Calls++
	if b != nil {
		op.span.Batches++
		op.span.Rows += int64(b.live())
	}
	return b, err
}

// finishTrace finalizes and delivers the run's span tree.
func (ex *executor) finishTrace() {
	obs.Finalize(ex.trace.root)
	ex.opts.Trace.Collect(ex.trace.root)
}
