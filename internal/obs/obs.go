// Package obs is the execution-trace layer of the observability stack: a
// per-query span tree recording, for every physical operator the engines
// ran, the wall time spent inside it, the rows and batches it emitted, and
// the exact Cout/Work/Scanned counter deltas attributable to its subtree —
// plus, for operators that ran under the morsel driver, a per-morsel
// breakdown with worker assignment.
//
// The design keeps the disabled path free: exec only builds spans (and the
// wrapper operators feeding them) when Options.Trace is non-nil, so a run
// without a collector executes byte-for-byte the pre-trace operator tree —
// no wrappers, no per-tuple checks, no allocations (asserted by the
// zero-overhead tests in internal/exec).
//
// Accounting is exact, not sampled: every engine counter increment happens
// inside some operator's next() frame, the wrapper around that operator
// records the counter delta across the frame, and nesting makes each
// span's totals inclusive of its children. Finalize then derives exclusive
// (Self*) values as inclusive minus the children's inclusive totals. All
// increments are per-tuple integers far below 2^53, so the root span's
// inclusive totals equal the run's Result accounting bit-for-bit and the
// Self* values sum back to it — the invariant the trace-correctness suite
// asserts for every template at every parallelism level.
package obs

import (
	"fmt"
	"strings"
	"time"
)

// Span is one operator's observed execution. Cout/Work/Scanned/WallNs are
// inclusive of Children; the Self* fields (filled by Finalize) are this
// operator's exclusive share. A span produced by a morsel-driven parallel
// operator has no children — the pipeline ran whole-chain-per-morsel on
// workers — and carries the per-morsel breakdown instead.
type Span struct {
	// Op is the physical operator name (plan.PhysOp.String()); Detail is
	// the operator's full EXPLAIN line (pattern, filters, schema).
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`

	// Calls counts next() pulls (including the final exhausted one);
	// Batches counts non-empty batches returned; Rows counts rows emitted.
	Calls   int   `json:"calls"`
	Batches int   `json:"batches"`
	Rows    int64 `json:"rows"`

	// Inclusive totals: wall time inside this operator's next() frames and
	// the engine counter deltas recorded across them (children included).
	WallNs  int64   `json:"wall_ns"`
	Cout    float64 `json:"cout"`
	Work    float64 `json:"work"`
	Scanned int64   `json:"scanned"`

	// Self* are the exclusive values (inclusive minus children's
	// inclusive), derived by Finalize. Summed over the whole tree they
	// reproduce the root's inclusive totals exactly.
	SelfWallNs  int64   `json:"self_wall_ns"`
	SelfCout    float64 `json:"self_cout"`
	SelfWork    float64 `json:"self_work"`
	SelfScanned int64   `json:"self_scanned"`

	// Workers is the peak worker count the operator's morsel runs used (0
	// when it never ran a parallel morsel loop); Morsels is the per-morsel
	// breakdown in morsel order.
	Workers int           `json:"workers,omitempty"`
	Morsels []MorselStats `json:"morsels,omitempty"`

	Children []*Span `json:"children,omitempty"`
}

// MorselStats is one morsel's share of a parallel operator's work: which
// worker ran it, how long it took, and its counter contribution. Counter
// sums over a span's morsels are part of the span's inclusive totals (the
// driver merges them in morsel order), so they participate in the same
// exactness invariant.
type MorselStats struct {
	Index   int     `json:"index"`
	Worker  int     `json:"worker"`
	WallNs  int64   `json:"wall_ns"`
	Cout    float64 `json:"cout"`
	Work    float64 `json:"work"`
	Scanned int64   `json:"scanned"`
}

// Collector receives the finalized span tree of one traced execution.
// Implementations must be cheap: Collect is called once per traced query,
// on the query's goroutine, after the Result is complete.
type Collector interface {
	Collect(root *Span)
}

// Capture is the trivial collector: it keeps the last collected root.
type Capture struct {
	Root *Span
}

// Collect stores root as the captured trace.
func (c *Capture) Collect(root *Span) { c.Root = root }

// Finalize computes the Self* fields of every span in the tree: inclusive
// totals minus the sum of the children's inclusive totals. It is
// idempotent only on a freshly recorded tree; exec calls it exactly once
// before handing the root to the collector.
func Finalize(root *Span) {
	if root == nil {
		return
	}
	var childWall, childScanned int64
	var childCout, childWork float64
	for _, c := range root.Children {
		Finalize(c)
		childWall += c.WallNs
		childCout += c.Cout
		childWork += c.Work
		childScanned += c.Scanned
	}
	root.SelfWallNs = root.WallNs - childWall
	root.SelfCout = root.Cout - childCout
	root.SelfWork = root.Work - childWork
	root.SelfScanned = root.Scanned - childScanned
}

// Sum returns the tree's Self* totals — after Finalize these equal the
// root's inclusive totals, which in turn equal the run's Result
// accounting. The trace-correctness tests assert both equalities.
func Sum(root *Span) (cout, work float64, scanned int64) {
	if root == nil {
		return 0, 0, 0
	}
	cout, work, scanned = root.SelfCout, root.SelfWork, root.SelfScanned
	for _, c := range root.Children {
		cc, cw, cs := Sum(c)
		cout += cc
		work += cw
		scanned += cs
	}
	return cout, work, scanned
}

// Render draws the span tree as an EXPLAIN ANALYZE listing: the operator's
// EXPLAIN line annotated with its observed metrics, children indented, and
// parallel operators followed by their per-morsel breakdown.
func Render(root *Span) string {
	var b strings.Builder
	renderSpan(&b, root, 0)
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, depth int) {
	if s == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	line := s.Detail
	if line == "" {
		line = s.Op
	}
	fmt.Fprintf(b, "%s%s\n", indent, line)
	fmt.Fprintf(b, "%s  (actual: rows=%d batches=%d calls=%d wall=%s cout=%.0f work=%.0f scanned=%d",
		indent, s.Rows, s.Batches, s.Calls, time.Duration(s.WallNs), s.Cout, s.Work, s.Scanned)
	if s.Workers > 0 {
		fmt.Fprintf(b, " morsels=%d workers=%d", len(s.Morsels), s.Workers)
	}
	b.WriteString(")\n")
	for _, m := range s.Morsels {
		fmt.Fprintf(b, "%s  [morsel %d worker %d: wall=%s cout=%.0f work=%.0f scanned=%d]\n",
			indent, m.Index, m.Worker, time.Duration(m.WallNs), m.Cout, m.Work, m.Scanned)
	}
	for _, c := range s.Children {
		renderSpan(b, c, depth+1)
	}
}
