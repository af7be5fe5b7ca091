package exec

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// This file implements the engine's operators over dense per-variable
// column batches with optional selection vectors. Filters refine a
// selection vector (with a per-ID verdict memo for column-vs-constant
// comparisons), probes and joins append column-wise, and sorts permute an
// index array instead of moving rows.
//
// Accounting is per tuple: every operator charges Cout, Work and Scanned
// for each logical row it reads or emits, never per batch, so the totals
// do not depend on batch boundaries or selection vectors. The hash join
// builds on the smaller side and probes in input order, and ORDER BY is a
// stable sort, so row order is determined by the plan and the store's
// index order alone. KernelStats (batch and kernel-row counts) describe
// the schedule and are excluded from the golden comparison.

// batchSize is the number of rows an operator emits per pull. Batches
// amortize the per-call overhead while keeping pipeline memory bounded.
const batchSize = 1024

// colBatch is a batch of rows in columnar layout: one dense column per
// schema variable, each of length n, plus an optional selection vector of
// live row indexes (nil = all n rows live, strictly ascending otherwise).
type colBatch struct {
	schema []sparql.Var
	cols   [][]dict.ID
	n      int
	sel    []int32
}

// live returns the number of live rows.
func (b *colBatch) live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// sliceLive returns a view of the batch's live rows [from, to).
func (b *colBatch) sliceLive(from, to int) *colBatch {
	if b.sel != nil {
		return &colBatch{schema: b.schema, cols: b.cols, n: b.n, sel: b.sel[from:to]}
	}
	cols := make([][]dict.ID, len(b.cols))
	for j := range cols {
		cols[j] = b.cols[j][from:to]
	}
	return &colBatch{schema: b.schema, cols: cols, n: to - from}
}

// colRelation is a fully materialized columnar table (no selection).
type colRelation struct {
	vars []sparql.Var
	cols [][]dict.ID
	n    int
}

// appendBatch gathers a batch's live rows onto the relation's columns,
// compacting through the selection vector when present.
func (r *colRelation) appendBatch(ex *executor, b *colBatch) {
	if b.sel != nil {
		ex.kern.GatherRows += len(b.sel)
		for j := range r.cols {
			col := b.cols[j]
			for _, x := range b.sel {
				r.cols[j] = append(r.cols[j], col[x])
			}
		}
		r.n += len(b.sel)
		return
	}
	for j := range r.cols {
		r.cols[j] = append(r.cols[j], b.cols[j][:b.n]...)
	}
	r.n += b.n
}

// buffered is the output side of a pipeline breaker: its fully
// materialized result, streamed out in batchSize windows.
type buffered struct {
	out *colRelation
	pos int
	win colBatch // the window nextWindow returns, re-pointed on every call
}

// nextWindow returns the next window of the buffered result — the dense
// rows [pos, pos+batchSize) — or nil once it is exhausted (or was never
// produced).
func (bf *buffered) nextWindow(ex *executor) *colBatch {
	if bf.out == nil || bf.pos >= bf.out.n {
		return nil
	}
	end := min(bf.pos+batchSize, bf.out.n)
	if bf.win.cols == nil {
		bf.win = colBatch{schema: bf.out.vars, cols: make([][]dict.ID, len(bf.out.cols))}
	}
	for j := range bf.win.cols {
		bf.win.cols[j] = bf.out.cols[j][bf.pos:end]
	}
	bf.win.n = end - bf.pos
	bf.pos = end
	ex.kern.Batches++
	return &bf.win
}

// operator is the pull-based operator interface. next returns the next
// batch (never empty of live rows), or nil when exhausted.
//
// Ownership: a batch returned by next stays valid until the same
// producer's next call to next, which may overwrite its columns and
// selection vector in place; a relation (a drained input or a join output)
// stays valid until its run ends, when its pooled columns go back to the
// pool (buffers.go). A consumer that keeps rows longer must copy them, as
// drain, appendBatch and run do.
type operator interface {
	vars() []sparql.Var
	next() (*colBatch, error)
}

// run builds the plan's operator tree and drains it into result rows. The
// rows are gathered row-major into a pooled buffer, then cut from one
// backing array of the result's exact size, each capped at its width so an
// append to one row can never write into the next. Nothing in the result
// refers to a pooled buffer.
func (ex *executor) run(p *plan.Plan) ([]sparql.Var, [][]dict.ID, error) {
	root := ex.build(p.Phys)
	vars := root.vars()
	w := len(vars)
	ex.col(&ex.rowBuf)
	n := 0
	for {
		if err := ex.cancelled(); err != nil {
			return nil, nil, err
		}
		b, err := root.next()
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			break
		}
		nb := b.live()
		off := len(ex.rowBuf)
		ex.rowBuf = slices.Grow(ex.rowBuf, nb*w)[:off+nb*w]
		dst := ex.rowBuf[off:]
		for j, col := range b.cols {
			if b.sel != nil {
				for i, r := range b.sel {
					dst[i*w+j] = col[r]
				}
			} else {
				for i, v := range col[:nb] {
					dst[i*w+j] = v
				}
			}
		}
		n += nb
	}
	if n == 0 {
		return vars, nil, nil
	}
	data := make([]dict.ID, len(ex.rowBuf))
	copy(data, ex.rowBuf)
	rows := make([][]dict.ID, n)
	for i := range rows {
		rows[i] = data[i*w : (i+1)*w : (i+1)*w]
	}
	return vars, rows, nil
}

// build constructs the operator for one physical node, wrapped in a
// traced span when the run is traced.
func (ex *executor) build(n *plan.PhysNode) operator {
	if ex.trace != nil {
		return ex.buildTraced(n)
	}
	return ex.buildNode(n)
}

// buildNode constructs the operator for one physical node. The node's
// schema and its children's are the operators' schemas, and the lowering
// has already checked that every variable an operator names is in its
// input's schema; the tree is shared by concurrent runs and only read.
func (ex *executor) buildNode(n *plan.PhysNode) operator {
	switch n.Op {
	case plan.PhysIndexScan:
		return newScanOp(ex, n.Leaf, n.Vars)
	case plan.PhysIndexProbe:
		return &probeOp{ex: ex, child: ex.build(n.Left), outVars: n.Vars, plan: buildProbePlan(n.Left.Vars, n.Leaf)}
	case plan.PhysHashJoin, plan.PhysCross:
		return &joinOp{ex: ex, op: n.Op, left: ex.build(n.Left), right: ex.build(n.Right), outVars: n.Vars}
	case plan.PhysFilter:
		return newFilterOp(ex, ex.build(n.Left), compileFilters(n.Vars, n.Filters))
	case plan.PhysOrder:
		cols := make([]int, len(n.Keys))
		for i, k := range n.Keys {
			cols[i] = slices.Index(n.Vars, k.Var)
		}
		return &orderOp{ex: ex, child: ex.build(n.Left), keys: n.Keys, cols: cols}
	case plan.PhysProject:
		return &projectOp{child: ex.build(n.Left), outVars: n.Vars, cols: colsOf(n.Vars, n.Left.Vars)}
	case plan.PhysDistinct:
		return &distinctOp{ex: ex, child: ex.build(n.Left), seen: map[string]bool{}}
	case plan.PhysLimit:
		return &limitOp{child: ex.build(n.Left), limit: n.Limit, offset: n.Offset, earlyStop: ex.opts.EarlyStop}
	case plan.PhysLeftJoin:
		return &leftJoinOp{ex: ex, left: ex.build(n.Left), right: ex.build(n.Right), outVars: n.Vars}
	case plan.PhysUnion:
		kids, maps := make([]operator, len(n.Kids)), make([][]int, len(n.Kids))
		for i, k := range n.Kids {
			kids[i], maps[i] = ex.build(k), colsOf(n.Vars, k.Vars)
		}
		return &unionOp{ex: ex, kids: kids, outVars: n.Vars, maps: maps}
	case plan.PhysAggregate:
		return &aggOp{ex: ex, child: ex.build(n.Left), outVars: n.Vars,
			keyCols: colsOf(n.GroupBy, n.Left.Vars), specs: compileAggs(n.Left.Vars, n.Aggs)}
	default:
		panic(fmt.Sprintf("exec: unknown physical operator %v", n.Op))
	}
}

// drain pulls a child to exhaustion into a dense relation.
func (ex *executor) drain(child operator) (*colRelation, error) {
	rel := ex.newRelation(child.vars())
	for {
		b, err := child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rel, nil
		}
		rel.appendBatch(ex, b)
	}
}

// --- Shared leaf plumbing ----------------------------------------------------

// colsOf returns the column of schema holding each variable of vars, -1
// where schema lacks it.
func colsOf(vars, schema []sparql.Var) []int {
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = slices.Index(schema, v)
	}
	return cols
}

// tripleValue extracts position pos (0=S,1=P,2=O) of t.
func tripleValue(t store.IDTriple, pos int) dict.ID {
	switch pos {
	case 0:
		return t.S
	case 1:
		return t.P
	default:
		return t.O
	}
}

// scanPlan is the column-extraction plan of a leaf scan: one source
// position per output column, plus equality checks between positions
// holding the same (repeated) variable.
type scanPlan struct {
	srcs   []scanSrc
	checks [][2]int
}

type scanSrc struct {
	col int
	pos int
}

// buildScanPlan derives the extraction plan for cp's output schema.
func buildScanPlan(cp *plan.CompiledPattern, outVars []sparql.Var) scanPlan {
	var sp scanPlan
	posVar := [3]sparql.Var{cp.VarS, cp.VarP, cp.VarO}
	for ci, v := range outVars {
		first := -1
		for pos, pv := range posVar {
			if pv != v {
				continue
			}
			if first == -1 {
				first = pos
				sp.srcs = append(sp.srcs, scanSrc{col: ci, pos: pos})
			} else {
				sp.checks = append(sp.checks, [2]int{first, pos})
			}
		}
	}
	return sp
}

// probePlan is the per-outer-row plan of an index nested-loop join:
// which outer columns bind which pattern positions, which leaf positions
// become new output columns, and which leaf-internal repeated variables
// must agree.
type probePlan struct {
	pat      store.Pattern
	bindings []probeBinding
	newCols  []int    // leaf positions appended as new output columns
	checks   [][2]int // leaf-internal repeated unshared variables
}

type probeBinding struct {
	pos      int
	outerCol int
}

// buildProbePlan derives the probe plan of cp driven by the outer schema.
// Its new columns follow the probe's schema (plan.PhysIndexProbe): the
// leaf's variables not in outer, in S,P,O first-occurrence order.
func buildProbePlan(outer []sparql.Var, cp *plan.CompiledPattern) probePlan {
	pp := probePlan{pat: cp.Pat}
	posVar := [3]sparql.Var{cp.VarS, cp.VarP, cp.VarO}
	for pos, v := range posVar {
		if v == "" {
			continue
		}
		if ci := slices.Index(outer, v); ci >= 0 {
			pp.bindings = append(pp.bindings, probeBinding{pos: pos, outerCol: ci})
		} else if fp := slices.Index(posVar[:pos], v); fp >= 0 {
			pp.checks = append(pp.checks, [2]int{fp, pos})
		} else {
			pp.newCols = append(pp.newCols, pos)
		}
	}
	return pp
}

// --- IndexScan ---------------------------------------------------------------

// scanOp streams a triple pattern out of the store index, transposing
// each triple batch into dense columns with one tight per-position loop per
// output column.
type scanOp struct {
	ex      *executor
	outVars []sparql.Var
	cursor  *store.Scan // nil for missing leaves (empty)
	plan    scanPlan
	keep    []store.IDTriple
	out     colBatch // the batch next returns; its pooled columns are reused
}

// newScanOp streams cp into the columns of vars, the scan's schema:
// cp's distinct variables.
func newScanOp(ex *executor, cp *plan.CompiledPattern, vars []sparql.Var) *scanOp {
	op := &scanOp{ex: ex, outVars: vars}
	if cp.Missing {
		return op
	}
	op.cursor = ex.st.Scan(cp.Pat)
	op.plan = buildScanPlan(cp, op.outVars)
	return op
}

func (op *scanOp) vars() []sparql.Var { return op.outVars }

func (op *scanOp) next() (*colBatch, error) {
	if op.cursor == nil {
		return nil, nil
	}
	for {
		if err := op.ex.cancelled(); err != nil {
			return nil, err
		}
		triples := op.cursor.Next(batchSize)
		if triples == nil {
			return nil, nil
		}
		op.ex.scan += len(triples)
		op.ex.work += float64(len(triples))
		if len(op.plan.checks) > 0 {
			// Repeated-variable checks drop rows up front so emitted
			// batches stay dense.
			op.keep = op.keep[:0]
			for _, m := range triples {
				ok := true
				for _, ch := range op.plan.checks {
					if tripleValue(m, ch[0]) != tripleValue(m, ch[1]) {
						ok = false
						break
					}
				}
				if ok {
					op.keep = append(op.keep, m)
				}
			}
			triples = op.keep
		}
		if len(triples) == 0 {
			continue
		}
		n := len(triples)
		if op.out.cols == nil {
			op.out = colBatch{schema: op.outVars, cols: make([][]dict.ID, len(op.outVars))}
			for _, s := range op.plan.srcs {
				op.ex.col(&op.out.cols[s.col])
			}
		}
		for _, s := range op.plan.srcs {
			col := slices.Grow(op.out.cols[s.col][:0], n)[:n]
			switch s.pos {
			case 0:
				for i := range triples {
					col[i] = triples[i].S
				}
			case 1:
				for i := range triples {
					col[i] = triples[i].P
				}
			default:
				for i := range triples {
					col[i] = triples[i].O
				}
			}
			op.out.cols[s.col] = col
		}
		op.out.n = n
		op.ex.kern.Batches++
		return &op.out, nil
	}
}

// --- IndexNestedLoopProbe ----------------------------------------------------

// probeOp probes the store per live input row and appends matches
// column-wise, reusing one MatchBuf scratch for the overlay merge path.
type probeOp struct {
	ex      *executor
	child   operator
	outVars []sparql.Var
	plan    probePlan
	scratch []store.IDTriple
	out     colBatch // the batch next returns; its pooled columns are reused
}

func (op *probeOp) vars() []sparql.Var { return op.outVars }

func (op *probeOp) next() (*colBatch, error) {
	for {
		if err := op.ex.cancelled(); err != nil {
			return nil, err
		}
		in, err := op.child.next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		out := op.probeBatch(in)
		if out != nil {
			op.ex.cout += float64(out.n) // join output counts toward Cout
			op.ex.kern.Batches++
			return out, nil
		}
	}
}

func (op *probeOp) probeBatch(in *colBatch) *colBatch {
	pp := &op.plan
	nin := len(in.schema)
	if op.out.cols == nil {
		op.out = colBatch{schema: op.outVars, cols: make([][]dict.ID, len(op.outVars))}
		for j := range op.out.cols {
			op.ex.col(&op.out.cols[j])
		}
	}
	outCols := op.out.cols
	for j := range outCols {
		outCols[j] = outCols[j][:0]
	}
	outN := 0
	probeRow := func(r int32) {
		pat := pp.pat
		conflict := false
		for _, bd := range pp.bindings {
			v := in.cols[bd.outerCol][r]
			switch bd.pos {
			case 0:
				if pat.S != dict.None && pat.S != v {
					conflict = true
				}
				pat.S = v
			case 1:
				if pat.P != dict.None && pat.P != v {
					conflict = true
				}
				pat.P = v
			default:
				if pat.O != dict.None && pat.O != v {
					conflict = true
				}
				pat.O = v
			}
		}
		op.ex.work++ // index probe
		if conflict {
			return
		}
		var matches []store.IDTriple
		matches, op.scratch = op.ex.st.MatchBuf(pat, op.scratch)
		op.ex.scan += len(matches)
		op.ex.work += float64(len(matches))
		for _, m := range matches {
			ok := true
			for _, ch := range pp.checks {
				if tripleValue(m, ch[0]) != tripleValue(m, ch[1]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for j := 0; j < nin; j++ {
				outCols[j] = append(outCols[j], in.cols[j][r])
			}
			for k, pos := range pp.newCols {
				outCols[nin+k] = append(outCols[nin+k], tripleValue(m, pos))
			}
			outN++
		}
	}
	if in.sel != nil {
		for _, r := range in.sel {
			probeRow(r)
		}
	} else {
		for r := 0; r < in.n; r++ {
			probeRow(int32(r))
		}
	}
	if outN == 0 {
		return nil
	}
	op.out.n = outN
	return &op.out
}

// --- Filter ------------------------------------------------------------------

// filterOp refines the selection vector. Column-vs-constant comparisons
// (the common FILTER shape) are memoized per dictionary ID, so each
// distinct value is decoded and compared once per operator instead of once
// per row.
type filterOp struct {
	ex      *executor
	child   operator
	filters []compiledFilter
	memoCol []int              // column a memoizable filter keys on, -1 otherwise
	memo    []map[dict.ID]bool // per-filter verdict cache (nil when not memoizable)
	out     colBatch           // the batch next returns: the child's columns, a pooled selection
}

func newFilterOp(ex *executor, child operator, cs []compiledFilter) *filterOp {
	op := &filterOp{ex: ex, child: child, filters: cs,
		memoCol: make([]int, len(cs)), memo: make([]map[dict.ID]bool, len(cs))}
	for i, c := range cs {
		col := -1
		switch {
		case c.leftCol >= 0 && c.rightCol < 0:
			col = c.leftCol
		case c.leftCol < 0 && c.rightCol >= 0:
			col = c.rightCol
		case c.leftCol >= 0 && c.leftCol == c.rightCol:
			col = c.leftCol
		}
		op.memoCol[i] = col
		if col >= 0 {
			op.memo[i] = make(map[dict.ID]bool)
		}
	}
	return op
}

func (op *filterOp) vars() []sparql.Var { return op.child.vars() }

func (op *filterOp) pass(d *dict.Dict, b *colBatch, r int32) bool {
	for i := range op.filters {
		c := &op.filters[i]
		if col := op.memoCol[i]; col >= 0 {
			id := b.cols[col][r]
			if id == dict.None {
				// Unbound column (OPTIONAL padding, a UNION branch
				// without the variable): no comparison holds.
				return false
			}
			v, ok := op.memo[i][id]
			if !ok {
				lt, rt := c.leftTerm, c.rightTerm
				if c.leftCol >= 0 {
					lt = d.Decode(id)
				}
				if c.rightCol >= 0 {
					rt = d.Decode(id)
				}
				v = evalCompare(lt, c.op, rt)
				op.memo[i][id] = v
			}
			if !v {
				return false
			}
			continue
		}
		lt, rt := c.leftTerm, c.rightTerm
		if c.leftCol >= 0 {
			id := b.cols[c.leftCol][r]
			if id == dict.None {
				return false
			}
			lt = d.Decode(id)
		}
		if c.rightCol >= 0 {
			id := b.cols[c.rightCol][r]
			if id == dict.None {
				return false
			}
			rt = d.Decode(id)
		}
		if !evalCompare(lt, c.op, rt) {
			return false
		}
	}
	return true
}

func (op *filterOp) next() (*colBatch, error) {
	d := op.ex.st.Dict()
	for {
		b, err := op.child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		if op.out.sel == nil {
			op.ex.sel(&op.out.sel)
		}
		sel := op.out.sel[:0]
		if b.sel != nil {
			for _, r := range b.sel {
				op.ex.work++
				op.ex.kern.FilterRows++
				if op.pass(d, b, r) {
					sel = append(sel, r)
				}
			}
		} else {
			for r := int32(0); int(r) < b.n; r++ {
				op.ex.work++
				op.ex.kern.FilterRows++
				if op.pass(d, b, r) {
					sel = append(sel, r)
				}
			}
		}
		op.out.sel = sel
		if len(sel) > 0 {
			op.ex.kern.Batches++
			op.out.schema, op.out.cols, op.out.n = b.schema, b.cols, b.n
			return &op.out, nil
		}
	}
}

// --- Hash / cross joins ------------------------------------------------------

// sharedCols returns (leftCol, rightCol) pairs of same-variable columns.
func sharedCols(lvars, rvars []sparql.Var) [][2]int {
	var out [][2]int
	for li, v := range lvars {
		if ri := slices.Index(rvars, v); ri >= 0 {
			out = append(out, [2]int{li, ri})
		}
	}
	return out
}

// unzipCols splits sharedCols pairs into the left and the right columns.
func unzipCols(shared [][2]int) (left, right []int) {
	left, right = make([]int, len(shared)), make([]int, len(shared))
	for i, sc := range shared {
		left[i], right[i] = sc[0], sc[1]
	}
	return left, right
}

// colSrc names the source of one output column of a join.
type colSrc struct {
	fromBuild bool
	col       int
}

// joinLayout lists the per-column sources of a hash join's output — the
// nl left columns, then the right columns extra — when the build side may
// have been swapped: the schema always keeps the plan's left/right
// orientation.
func joinLayout(nl int, extra []int, swapped bool) []colSrc {
	src := make([]colSrc, 0, nl+len(extra))
	for i := 0; i < nl; i++ {
		src = append(src, colSrc{fromBuild: !swapped, col: i})
	}
	for _, ci := range extra {
		src = append(src, colSrc{fromBuild: swapped, col: ci})
	}
	return src
}

// joinOp is the pipeline breaker for composite-composite joins: drain both
// children, run the join kernel, stream windows.
type joinOp struct {
	ex          *executor
	op          plan.PhysOp
	left, right operator
	joined      bool
	outVars     []sparql.Var
	buffered
}

func (op *joinOp) vars() []sparql.Var { return op.outVars }

func (op *joinOp) next() (*colBatch, error) {
	if !op.joined {
		op.joined = true
		l, err := op.ex.drain(op.left)
		if err != nil {
			return nil, err
		}
		r, err := op.ex.drain(op.right)
		if err != nil {
			return nil, err
		}
		var out *colRelation
		if op.op == plan.PhysCross {
			out, err = op.ex.crossProduct(l, r, op.outVars)
		} else {
			out, err = op.ex.hashJoin(l, r, sharedCols(l.vars, r.vars), op.outVars)
		}
		if err != nil {
			return nil, err
		}
		op.ex.cout += float64(out.n)
		op.out = out
	}
	return op.nextWindow(op.ex), nil
}

// joinTable indexes a join's build relation by its shared columns, for the
// hash join and the left join alike. It is an open-addressing table over
// pooled arrays, keyed exactly on every shared column however many there
// are: slots holds 1 + the first build row of each key (0 = empty, linear
// probing from the key's hash), and next[i] the build row after i with the
// same key (-1 at the end), so each key's rows chain in build order.
type joinTable struct {
	rel   *colRelation
	cols  []int // the build relation's shared columns
	slots []int32
	next  []int32
	shift uint // 64 - log2(len(slots)): hashes index by their top bits
}

// hashRow hashes row of rel over cols.
func hashRow(rel *colRelation, cols []int, row int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		h = (h ^ uint64(rel.cols[c][row])) * 0x9e3779b97f4a7c15
	}
	return h
}

// sameKey reports whether row ai of a over acols equals row bi of b over
// bcols.
func sameKey(a *colRelation, acols []int, ai int, b *colRelation, bcols []int, bi int) bool {
	for x, c := range acols {
		if a.cols[c][ai] != b.cols[bcols[x]][bi] {
			return false
		}
	}
	return true
}

// buildJoinTable indexes rel over cols. It links the chains back to front,
// so each runs in ascending row order, and polls cancellation every
// cancelCheckRows rows.
func (ex *executor) buildJoinTable(rel *colRelation, cols []int) (*joinTable, error) {
	size := 1
	for size < 2*rel.n {
		size <<= 1
	}
	t := &joinTable{rel: rel, cols: cols, slots: ex.int32s(size), next: ex.int32s(rel.n),
		shift: uint(64 - bits.Len(uint(size-1)))}
	clear(t.slots)
	mask := size - 1
	for i := rel.n - 1; i >= 0; i-- {
		if (rel.n-1-i)%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		pos := int(hashRow(rel, cols, i) >> t.shift)
		t.next[i] = -1
		for ; t.slots[pos] != 0; pos = (pos + 1) & mask {
			if h := t.slots[pos] - 1; sameKey(rel, cols, int(h), rel, cols, i) {
				t.next[i] = h
				break
			}
		}
		t.slots[pos] = int32(i + 1)
	}
	return t, nil
}

// first returns the first build row whose key equals row of probe over
// pcols (the probe side's shared columns, paired with t.cols), or -1; the
// rest of the matches follow through next.
func (t *joinTable) first(probe *colRelation, pcols []int, row int) int32 {
	mask := len(t.slots) - 1
	for pos := int(hashRow(probe, pcols, row) >> t.shift); t.slots[pos] != 0; pos = (pos + 1) & mask {
		if h := t.slots[pos] - 1; sameKey(t.rel, t.cols, int(h), probe, pcols, row) {
			return h
		}
	}
	return -1
}

// hashJoin builds a hash table on the smaller input and probes it with the
// other in input order, appending output column-wise into the columns of
// vars (l's columns, then r's new ones). Accounting: +1 work per build
// row, per probe and per emitted row.
func (ex *executor) hashJoin(l, r *colRelation, shared [][2]int, vars []sparql.Var) (*colRelation, error) {
	swapped := r.n < l.n
	srcs := joinLayout(len(l.vars), colsOf(vars[len(l.vars):], r.vars), swapped)
	if swapped {
		l, r = r, l
		for i := range shared {
			shared[i][0], shared[i][1] = shared[i][1], shared[i][0]
		}
	}
	// l is the build side now.
	bcols, pcols := unzipCols(shared)
	table, err := ex.buildJoinTable(l, bcols)
	if err != nil {
		return nil, err
	}
	ex.work += float64(l.n) // build cost
	out := ex.newRelation(vars)
	for rr := 0; rr < r.n; rr++ {
		if (rr+1)%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		ex.work++ // probe cost
		ex.kern.HashProbeRows++
		for li := table.first(r, pcols, rr); li >= 0; li = table.next[li] {
			for j, s := range srcs {
				if s.fromBuild {
					out.cols[j] = append(out.cols[j], l.cols[s.col][li])
				} else {
					out.cols[j] = append(out.cols[j], r.cols[s.col][rr])
				}
			}
			out.n++
			ex.work++ // emit cost
		}
	}
	return out, nil
}

// crossProduct is the cross product of two inputs sharing no variable,
// into the columns of vars (l's columns, then r's).
func (ex *executor) crossProduct(l, r *colRelation, vars []sparql.Var) (*colRelation, error) {
	nl := len(l.vars)
	extra := colsOf(vars[nl:], r.vars)
	out := ex.newRelation(vars)
	steps := 0
	for i := 0; i < l.n; i++ {
		steps++
		if steps%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		for j := 0; j < r.n; j++ {
			steps++
			if steps%cancelCheckRows == 0 {
				if err := ex.cancelled(); err != nil {
					return nil, err
				}
			}
			for ci := 0; ci < nl; ci++ {
				out.cols[ci] = append(out.cols[ci], l.cols[ci][i])
			}
			for k, ci := range extra {
				out.cols[nl+k] = append(out.cols[nl+k], r.cols[ci][j])
			}
			out.n++
			ex.work++
		}
	}
	return out, nil
}

// --- Order (blocking) --------------------------------------------------------

// orderOp drains its input and stable-sorts a permutation array by the
// ORDER BY keys, then gathers the columns once in sorted order.
type orderOp struct {
	ex     *executor
	child  operator
	keys   []sparql.OrderKey
	cols   []int // each key's column
	sorted bool
	buffered
}

func (op *orderOp) vars() []sparql.Var { return op.child.vars() }

func (op *orderOp) next() (*colBatch, error) {
	if !op.sorted {
		op.sorted = true
		rel, err := op.ex.drain(op.child)
		if err != nil {
			return nil, err
		}
		if err := op.sortRel(rel); err != nil {
			return nil, err
		}
		op.ex.work += float64(rel.n)
		op.out = rel
	}
	return op.nextWindow(op.ex), nil
}

// sortRel permutes rel into ORDER BY order (stable, so the result is the
// unique keys-then-input-order arrangement). Every key cell is decoded
// once, into row r's keys[r*nk : (r+1)*nk], before the sort compares them.
func (op *orderOp) sortRel(rel *colRelation) (err error) {
	d := op.ex.st.Dict()
	cols := op.cols
	nk := len(cols)
	keys := op.ex.keys.scratch(&keyShelf, rel.n*nk)
	defer clear(keys) // pooled keys must not hold on to decoded terms
	for x, ci := range cols {
		for r, id := range rel.cols[ci][:rel.n] {
			keys[r*nk+x] = decodeOrderKey(d, id)
		}
	}
	perm := op.ex.int32s(rel.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	defer recoverSortAbort(&err)
	sort.SliceStable(perm, op.ex.lessWithCancel(func(i, j int) bool {
		a, b := int(perm[i]), int(perm[j])
		for x, ci := range cols {
			if rel.cols[ci][a] == rel.cols[ci][b] {
				continue
			}
			c := keys[a*nk+x].compare(&keys[b*nk+x])
			if c == 0 {
				continue
			}
			if op.keys[x].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}))
	op.ex.kern.GatherRows += rel.n
	tmp := op.ex.ids.scratch(&idShelf, rel.n)
	for _, col := range rel.cols {
		for i, p := range perm {
			tmp[i] = col[p]
		}
		copy(col, tmp)
	}
	return nil
}

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

// --- Project -----------------------------------------------------------------

// projectOp reorders column references — a free operation in columnar
// layout (no per-row copying).
type projectOp struct {
	child   operator
	outVars []sparql.Var
	cols    []int
	out     colBatch // the batch next returns, re-pointed on every call
}

func (op *projectOp) vars() []sparql.Var { return op.outVars }

func (op *projectOp) next() (*colBatch, error) {
	b, err := op.child.next()
	if err != nil || b == nil {
		return nil, err
	}
	if op.out.cols == nil {
		op.out = colBatch{schema: op.outVars, cols: make([][]dict.ID, len(op.cols))}
	}
	for j, ci := range op.cols {
		op.out.cols[j] = b.cols[ci]
	}
	op.out.n, op.out.sel = b.n, b.sel
	return &op.out, nil
}

// --- Distinct ----------------------------------------------------------------

// distinctOp keeps first occurrences, refining the selection vector.
type distinctOp struct {
	ex     *executor
	child  operator
	seen   map[string]bool
	keyBuf []byte
	out    colBatch // the batch next returns: the child's columns, a pooled selection
}

func (op *distinctOp) vars() []sparql.Var { return op.child.vars() }

func (op *distinctOp) keep(b *colBatch, r int32) bool {
	op.keyBuf = op.keyBuf[:0]
	for j := range b.cols {
		id := b.cols[j][r]
		op.keyBuf = append(op.keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	k := string(op.keyBuf)
	if op.seen[k] {
		return false
	}
	op.seen[k] = true
	return true
}

func (op *distinctOp) next() (*colBatch, error) {
	for {
		b, err := op.child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		if op.out.sel == nil {
			op.ex.sel(&op.out.sel)
		}
		sel := op.out.sel[:0]
		if b.sel != nil {
			for _, r := range b.sel {
				if op.keep(b, r) {
					sel = append(sel, r)
				}
				op.ex.work++
			}
		} else {
			for r := int32(0); int(r) < b.n; r++ {
				if op.keep(b, r) {
					sel = append(sel, r)
				}
				op.ex.work++
			}
		}
		op.out.sel = sel
		if len(sel) > 0 {
			op.out.schema, op.out.cols, op.out.n = b.schema, b.cols, b.n
			return &op.out, nil
		}
	}
}

// --- Limit -------------------------------------------------------------------

// limitOp skips the first offset live rows, then truncates the stream to
// limit rows (limit < 0 means unlimited — an OFFSET-only modifier). By
// default the child is still drained to exhaustion after the limit is
// reached, so Cout/Work/Scanned equal the unlimited run's — the paper's
// accounting. With Options.EarlyStop the drain is skipped and the pipeline
// stops as soon as the limit is reached (the serving-mode default); rows
// are unchanged, accounting reflects only the work actually done.
type limitOp struct {
	child     operator
	limit     int
	offset    int
	earlyStop bool
	skipped   int
	emitted   int
	drained   bool
}

func (op *limitOp) vars() []sparql.Var { return op.child.vars() }

func (op *limitOp) next() (*colBatch, error) {
	for op.limit < 0 || op.emitted < op.limit {
		b, err := op.child.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			op.drained = true
			return nil, nil
		}
		n := b.live()
		if skip := op.offset - op.skipped; skip > 0 {
			if n <= skip {
				op.skipped += n
				continue
			}
			op.skipped += skip
			b = b.sliceLive(skip, n)
			n -= skip
		}
		if op.limit >= 0 {
			if rest := op.limit - op.emitted; n > rest {
				b = b.sliceLive(0, rest)
				n = rest
			}
		}
		op.emitted += n
		return b, nil
	}
	if !op.drained {
		op.drained = true
		if !op.earlyStop {
			for {
				b, err := op.child.next()
				if err != nil {
					return nil, err
				}
				if b == nil {
					break
				}
			}
		}
	}
	return nil, nil
}
