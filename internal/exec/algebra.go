package exec

import (
	"slices"
	"strconv"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// This file implements the compositional-algebra operators: left outer
// hash join (OPTIONAL), ordered union with unbound padding (UNION), and
// hash aggregation (GROUP BY / aggregates).
//
// Unbound-variable semantics (fixed for this subset, deterministic):
// an OPTIONAL left row without a match pads the right-only columns with
// dict.None; a UNION branch pads the columns it does not bind. None
// compares equal to None and unequal to every bound ID in joins, drops
// the row in FILTER comparisons, sorts before every bound value in
// ORDER BY, and is ignored by every aggregate except COUNT(*).

// --- Left outer hash join (OPTIONAL) -----------------------------------------

// leftJoin is the left outer hash join into the columns of vars (l's
// columns, then r's new ones): a hash table is built on the right side
// (the OPTIONAL group), then the left rows are probed in order. A
// matching left row emits one output per match in build insertion order; a
// non-matching one emits once with the right-only columns unbound. With no
// shared variable the key is empty, so every left row matches every right
// row (degenerate cross), which keeps the operator total. Accounting: +1
// work per build row, per probe and per emitted row; the caller charges the
// output size to Cout.
func (ex *executor) leftJoin(l, r *colRelation, vars []sparql.Var) (*colRelation, error) {
	extra := colsOf(vars[len(l.vars):], r.vars)
	lcols, rcols := unzipCols(sharedCols(l.vars, r.vars))
	table, err := ex.buildJoinTable(r, rcols)
	if err != nil {
		return nil, err
	}
	ex.work += float64(r.n) // build cost
	nl := len(l.vars)
	out := ex.newRelation(vars)
	emit := func(lr int, rr int32, matched bool) {
		for ci := 0; ci < nl; ci++ {
			out.cols[ci] = append(out.cols[ci], l.cols[ci][lr])
		}
		for k, ci := range extra {
			if matched {
				out.cols[nl+k] = append(out.cols[nl+k], r.cols[ci][rr])
			} else {
				out.cols[nl+k] = append(out.cols[nl+k], dict.None)
			}
		}
		out.n++
		ex.work++ // emit cost
		ex.kern.LeftJoinRows++
	}
	steps := 0
	for i := 0; i < l.n; i++ {
		steps++
		if steps%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		ex.work++ // probe cost
		ex.kern.HashProbeRows++
		rr := table.first(l, lcols, i)
		if rr < 0 {
			emit(i, 0, false)
			continue
		}
		for ; rr >= 0; rr = table.next[rr] {
			emit(i, rr, true)
		}
	}
	return out, nil
}

// leftJoinOp is the pipeline breaker for PhysLeftJoin: both children are
// drained (the left side's order must be preserved), the kernel runs once,
// and the result streams out in batches.
type leftJoinOp struct {
	ex          *executor
	left, right operator
	joined      bool
	outVars     []sparql.Var
	buffered
}

func (op *leftJoinOp) vars() []sparql.Var { return op.outVars }

func (op *leftJoinOp) next() (*colBatch, error) {
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
		out, err := op.ex.leftJoin(l, r, op.outVars)
		if err != nil {
			return nil, err
		}
		op.ex.cout += float64(out.n)
		op.out = out
	}
	return op.nextWindow(op.ex), nil
}

// --- Union -------------------------------------------------------------------

// unionOp streams each branch to exhaustion in order, gathering live
// rows into dense batches over the union schema and padding columns the
// branch does not bind with dict.None. Accounting: +1 work per emitted
// row, and the full output size counts toward Cout (the union materializes
// a new intermediate result exactly like a join output).
type unionOp struct {
	ex      *executor
	kids    []operator
	outVars []sparql.Var
	maps    [][]int // per kid, each output column's kid column (-1: pad None)
	cur     int
	out     colBatch // the batch next returns; its pooled columns are reused
}

func (op *unionOp) vars() []sparql.Var { return op.outVars }

func (op *unionOp) next() (*colBatch, error) {
	for op.cur < len(op.kids) {
		if err := op.ex.cancelled(); err != nil {
			return nil, err
		}
		b, err := op.kids[op.cur].next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			op.cur++
			continue
		}
		m := op.maps[op.cur]
		n := b.live()
		if op.out.cols == nil {
			op.out = colBatch{schema: op.outVars, cols: make([][]dict.ID, len(op.outVars))}
			for j := range op.out.cols {
				op.ex.col(&op.out.cols[j])
			}
		}
		for j, ci := range m {
			col := slices.Grow(op.out.cols[j][:0], n)[:n]
			switch {
			case ci < 0:
				clear(col) // dict.None padding
			case b.sel != nil:
				src := b.cols[ci]
				for i, x := range b.sel {
					col[i] = src[x]
				}
			default:
				copy(col, b.cols[ci][:n])
			}
			op.out.cols[j] = col
		}
		op.out.n = n
		if b.sel != nil {
			op.ex.kern.GatherRows += n
		}
		op.ex.work += float64(n) // emit cost
		op.ex.kern.UnionRows += n
		op.ex.cout += float64(n)
		op.ex.kern.Batches++
		return &op.out, nil
	}
	return nil, nil
}

// --- Aggregation -------------------------------------------------------------

// aggSpec is one aggregate resolved against the input schema.
type aggSpec struct {
	fn       sparql.AggFunc
	distinct bool
	col      int // source column; -1 for COUNT(*)
}

// compileAggs resolves the aggregates' argument variables to columns.
func compileAggs(vars []sparql.Var, aggs []sparql.Aggregate) []aggSpec {
	specs := make([]aggSpec, len(aggs))
	for i, a := range aggs {
		specs[i] = aggSpec{fn: a.Func, distinct: a.Distinct, col: -1}
		if a.Var != "" {
			specs[i].col = slices.Index(vars, a.Var)
		}
	}
	return specs
}

// aggState is the running state of one aggregate over one group.
type aggState struct {
	count        int64            // COUNT
	distinct     map[dict.ID]bool // COUNT(DISTINCT ?v)
	sum          float64          // SUM / AVG accumulator
	sumN         int64            // numeric values accumulated
	sumInt       bool             // all accumulated values were xsd:integer
	minID, maxID dict.ID          // winning input IDs (None = unset)
}

// aggregateRows groups the input's rows by the key columns, keeping groups
// in first-occurrence order, and folds each aggregate. Accounting: +1 work
// per input row, +1 per emitted group, and the group count toward Cout.
// Unbound inputs (dict.None) are ignored by every aggregate; COUNT(*)
// counts rows regardless. SUM and AVG fold numeric-coercible values only
// (input order, so float accumulation is deterministic); MIN/MAX keep the
// winning input ID under compareOrder (first wins ties). Results are
// interned into the store dictionary (Encode is idempotent).
func aggregateRows(ex *executor, in *colRelation, keyCols []int, specs []aggSpec, outVars []sparql.Var) (*colRelation, error) {
	d := ex.st.Dict()
	type group struct {
		row int // first input row: its key columns are the group key
		sts []aggState
	}
	newGroup := func(row int) *group {
		g := &group{row: row, sts: make([]aggState, len(specs))}
		for i := range g.sts {
			g.sts[i].sumInt = true
			if specs[i].distinct {
				g.sts[i].distinct = map[dict.ID]bool{}
			}
		}
		return g
	}
	var groups []*group
	index := map[string]*group{}
	if len(keyCols) == 0 {
		// Global aggregation always emits exactly one row, even over an
		// empty input (COUNT = 0, SUM = 0, MIN/MAX/AVG unbound).
		groups = append(groups, newGroup(-1))
	}
	var keyBuf []byte
	for r := 0; r < in.n; r++ {
		if r%cancelCheckRows == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		ex.work++ // aggregate input row
		var grp *group
		if len(keyCols) == 0 {
			grp = groups[0]
		} else {
			keyBuf = keyBuf[:0]
			for _, kc := range keyCols {
				id := in.cols[kc][r]
				keyBuf = append(keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
			var ok bool
			if grp, ok = index[string(keyBuf)]; !ok {
				grp = newGroup(r)
				groups = append(groups, grp)
				index[string(keyBuf)] = grp
			}
		}
		for i := range specs {
			sp := &specs[i]
			st := &grp.sts[i]
			if sp.col < 0 {
				st.count++ // COUNT(*)
				continue
			}
			id := in.cols[sp.col][r]
			if id == dict.None {
				continue
			}
			switch sp.fn {
			case sparql.AggCount:
				if sp.distinct {
					st.distinct[id] = true
				} else {
					st.count++
				}
			case sparql.AggSum, sparql.AggAvg:
				t := d.Decode(id)
				if f, ok := numericValue(t); ok {
					st.sum += f
					st.sumN++
					if t.Datatype != rdf.XSDInteger {
						st.sumInt = false
					}
				}
			case sparql.AggMin:
				if st.minID == dict.None || compareOrder(d, id, st.minID) < 0 {
					st.minID = id
				}
			case sparql.AggMax:
				if st.maxID == dict.None || compareOrder(d, id, st.maxID) > 0 {
					st.maxID = id
				}
			}
		}
	}
	out := ex.newRelation(outVars)
	out.n = len(groups)
	for _, g := range groups {
		ex.work++ // emitted group
		for i, kc := range keyCols {
			out.cols[i] = append(out.cols[i], in.cols[kc][g.row])
		}
		for i := range specs {
			j := len(keyCols) + i
			out.cols[j] = append(out.cols[j], finishAgg(d, &specs[i], &g.sts[i]))
		}
	}
	ex.cout += float64(len(groups))
	ex.kern.AggGroups += len(groups)
	return out, nil
}

// finishAgg materializes one aggregate's result as a dictionary ID.
func finishAgg(d *dict.Dict, sp *aggSpec, st *aggState) dict.ID {
	switch sp.fn {
	case sparql.AggCount:
		c := st.count
		if sp.distinct {
			c = int64(len(st.distinct))
		}
		return d.Encode(rdf.NewInteger(c))
	case sparql.AggSum:
		if st.sumN == 0 {
			return d.Encode(rdf.NewInteger(0))
		}
		if st.sumInt {
			return d.Encode(rdf.NewInteger(int64(st.sum)))
		}
		return d.Encode(rdf.NewTypedLiteral(strconv.FormatFloat(st.sum, 'g', -1, 64), rdf.XSDDecimal))
	case sparql.AggAvg:
		if st.sumN == 0 {
			return dict.None
		}
		return d.Encode(rdf.NewTypedLiteral(strconv.FormatFloat(st.sum/float64(st.sumN), 'g', -1, 64), rdf.XSDDecimal))
	case sparql.AggMin:
		return st.minID
	case sparql.AggMax:
		return st.maxID
	}
	return dict.None
}

// aggOp is the hash-aggregation pipeline breaker: drain the input, run
// aggregateRows, stream the group rows.
type aggOp struct {
	ex      *executor
	child   operator
	outVars []sparql.Var
	keyCols []int
	specs   []aggSpec
	done    bool
	buffered
}

func (op *aggOp) vars() []sparql.Var { return op.outVars }

func (op *aggOp) next() (*colBatch, error) {
	if !op.done {
		op.done = true
		rel, err := op.ex.drain(op.child)
		if err != nil {
			return nil, err
		}
		if op.out, err = aggregateRows(op.ex, rel, op.keyCols, op.specs, op.outVars); err != nil {
			return nil, err
		}
	}
	return op.nextWindow(op.ex), nil
}
