package exec

import (
	"sort"

	"repro/internal/dict"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// This file implements the worst-case-optimal leapfrog triejoin over the
// hexastore permutations. Each pattern contributes one seek-capable cursor
// (store.ScanSeek) whose variable positions are ordered by the plan's
// global trie order, so every cursor walks a sorted run whose key prefix
// agrees with the trie levels the pattern participates in. The join
// intersects all participating cursors level by level; a full assignment
// of the trie variables determines exactly one triple per pattern, so each
// complete binding emits exactly one row and the multiway join never
// materializes a binary intermediate.
//
// Accounting is per level-match (work and scanned grow by the number of
// participating patterns) plus one work unit per emitted row, with Cout
// equal to the emitted rows — the node stands in for the whole binary join
// tree. These counts depend only on the set of matching values, so they
// are additive across value partitions of the top trie level, which is
// what makes the parallel run bit-identical to the serial one. Seek counts
// are schedule-dependent and go to KernelStats.LeapfrogSeeks only.

const lfMaxID = ^dict.ID(0)

// lfIter is one pattern's trie cursor: a seek-capable scan whose comp
// array tracks the currently bound variable components in trie order.
type lfIter struct {
	cur    *store.Scan
	varPos []int // triple positions of the pattern's vars, by trie level
	levels []int // global trie level of each var, ascending
	comp   [3]dict.ID
}

func newLFIter(st store.Source, cp *plan.CompiledPattern, trieLevel map[sparql.Var]int) *lfIter {
	type pv struct{ pos, level int }
	var pvs []pv
	posVar := [3]sparql.Var{cp.VarS, cp.VarP, cp.VarO}
	for pos, v := range posVar {
		if v == "" {
			continue
		}
		pvs = append(pvs, pv{pos, trieLevel[v]})
	}
	sort.Slice(pvs, func(i, j int) bool { return pvs[i].level < pvs[j].level })
	it := &lfIter{}
	for _, x := range pvs {
		it.varPos = append(it.varPos, x.pos)
		it.levels = append(it.levels, x.level)
	}
	it.cur = st.ScanSeek(cp.Pat, it.varPos)
	return it
}

// seek positions the cursor at the first key whose depth-d component is
// >= v under the currently bound shallower components (deeper components
// reset to zero). Seeks are bidirectional, which joinLevel relies on when
// it re-enters a group.
func (it *lfIter) seek(d int, v dict.ID) {
	it.comp[d] = v
	for i := d + 1; i < len(it.varPos); i++ {
		it.comp[i] = 0
	}
	it.cur.SeekVar(it.comp[0], it.comp[1], it.comp[2])
}

// head returns the depth-d component at the cursor head, or false when the
// cursor is exhausted or has left the group formed by the bound shallower
// components.
func (it *lfIter) head(d int) (dict.ID, bool) {
	k, ok := it.cur.HeadVar()
	if !ok {
		return 0, false
	}
	for i := 0; i < d; i++ {
		if k[i] != it.comp[i] {
			return 0, false
		}
	}
	return k[d], true
}

// lfPart is one level's participant: an iterator and the depth of the
// level's variable within that iterator.
type lfPart struct {
	it *lfIter
	d  int
}

// leapfrog drives one (serial or per-morsel) triejoin run.
type leapfrog struct {
	ex      *executor
	byLevel [][]lfPart
	binding []dict.ID
	emit    func(binding []dict.ID)
	lo0     dict.ID // level-0 lower bound (inclusive)
	hi0     dict.ID // level-0 upper bound (exclusive) when bounded
	bounded bool
	steps   int
}

func (lf *leapfrog) run() error { return lf.joinLevel(0) }

// joinLevel intersects all participants of one trie level, recursing into
// the next level on every match. On entry every participant is re-seeked
// to the start of its current group, so a level can be re-entered after
// the shallower binding advances.
func (lf *leapfrog) joinLevel(lvl int) error {
	parts := lf.byLevel[lvl]
	lo := dict.ID(0)
	if lvl == 0 {
		lo = lf.lo0
	}
	for _, p := range parts {
		p.it.seek(p.d, lo)
	}
	last := lvl == len(lf.byLevel)-1
	for {
		lf.steps++
		if lf.steps%cancelCheckRows == 0 {
			if err := lf.ex.cancelled(); err != nil {
				return err
			}
		}
		v, ok := lf.search(parts)
		if !ok {
			return nil
		}
		if lvl == 0 && lf.bounded && v >= lf.hi0 {
			return nil
		}
		k := len(parts)
		lf.ex.work += float64(k)
		lf.ex.scan += k
		lf.binding[lvl] = v
		for _, p := range parts {
			p.it.comp[p.d] = v
		}
		if last {
			lf.emit(lf.binding)
		} else if err := lf.joinLevel(lvl + 1); err != nil {
			return err
		}
		if v == lfMaxID {
			return nil
		}
		for _, p := range parts {
			p.it.seek(p.d, v+1)
		}
	}
}

// search runs the leapfrog intersection: repeatedly seek the lagging
// cursors up to the current maximum until all heads agree or one group is
// exhausted.
func (lf *leapfrog) search(parts []lfPart) (dict.ID, bool) {
	var max dict.ID
	for _, p := range parts {
		v, ok := p.it.head(p.d)
		if !ok {
			return 0, false
		}
		if v > max {
			max = v
		}
	}
	for {
		settled := true
		for _, p := range parts {
			v, ok := p.it.head(p.d)
			if !ok {
				return 0, false
			}
			if v < max {
				p.it.seek(p.d, max)
				lf.ex.kern.LeapfrogSeeks++
				v, ok = p.it.head(p.d)
				if !ok {
					return 0, false
				}
			}
			if v > max {
				max = v
				settled = false
			}
		}
		if settled {
			return max, true
		}
	}
}

// leapfrogOp is the operator wrapping the triejoin: a pipeline
// breaker that materializes the full result (optionally in parallel over
// level-0 value partitions) and streams dense windows.
type leapfrogOp struct {
	ex   *executor
	node *plan.PhysNode
	ran  bool
	buffered
}

func newLeapfrogOp(ex *executor, n *plan.PhysNode) *leapfrogOp {
	return &leapfrogOp{ex: ex, node: n}
}

func (op *leapfrogOp) vars() []sparql.Var { return op.node.Vars }

func (op *leapfrogOp) next() (*colBatch, error) {
	if !op.ran {
		op.ran = true
		if err := op.run(); err != nil {
			return nil, err
		}
	}
	return op.nextWindow(op.ex), nil
}

func (op *leapfrogOp) run() error {
	ex := op.ex
	n := op.node
	trieLevel := map[sparql.Var]int{}
	for i, v := range n.TrieVars {
		trieLevel[v] = i
	}
	// Output column j carries trie variable outMap[j].
	outMap := make([]int, len(n.Vars))
	for j, v := range n.Vars {
		outMap[j] = trieLevel[v]
	}
	nlevels := len(n.TrieVars)
	out := ex.newRelation(n.Vars)
	op.out = out

	build := func(wex *executor, lo, hi dict.ID, bounded bool, dst *colRelation) *leapfrog {
		byLevel := make([][]lfPart, nlevels)
		for _, cp := range n.Leaves {
			it := newLFIter(ex.st, cp, trieLevel)
			for d, lvl := range it.levels {
				byLevel[lvl] = append(byLevel[lvl], lfPart{it: it, d: d})
			}
		}
		return &leapfrog{
			ex:      wex,
			byLevel: byLevel,
			binding: make([]dict.ID, nlevels),
			lo0:     lo,
			hi0:     hi,
			bounded: bounded,
			emit: func(b []dict.ID) {
				for j, lvl := range outMap {
					dst.cols[j] = append(dst.cols[j], b[lvl])
				}
				dst.n++
				wex.work++
				wex.kern.LeapfrogRows++
			},
		}
	}

	bounds := op.partitionBounds()
	if ex.parallelism() > 1 && len(bounds) > 1 {
		outs := make([]*colRelation, len(bounds))
		err := ex.runMorsels(len(bounds), func(wex *executor, i int) error {
			dst := wex.newRelation(n.Vars)
			var hi dict.ID
			bounded := i+1 < len(bounds)
			if bounded {
				hi = bounds[i+1]
			}
			lf := build(wex, bounds[i], hi, bounded, dst)
			if err := lf.run(); err != nil {
				return err
			}
			outs[i] = dst
			return nil
		})
		if err != nil {
			return err
		}
		mergeOutputs(out, outs)
	} else {
		lf := build(ex, 0, 0, false, out)
		if err := lf.run(); err != nil {
			return err
		}
	}
	ex.cout += float64(out.n)
	return nil
}

// partitionBounds picks the level-0 boundary values a parallel run
// partitions the trie's top level by: the level-0 participant with the
// smallest index range is scanned once, and the level-0 component of the
// first triple after each morsel-sized chunk becomes a boundary. Each
// morsel then runs a full triejoin with fresh cursors over the half-open
// value range [bounds[i], bounds[i+1]); morsel-order concatenation equals
// the serial result because the trie emits level-0 values in ascending
// order. A single-element result means run serially.
func (op *leapfrogOp) partitionBounds() []dict.ID {
	ex := op.ex
	serial := []dict.ID{0}
	if ex.parallelism() <= 1 {
		return serial
	}
	n := op.node
	v0 := n.TrieVars[0]
	var primary *plan.CompiledPattern
	best := -1
	for _, cp := range n.Leaves {
		if cp.VarS != v0 && cp.VarP != v0 && cp.VarO != v0 {
			continue
		}
		c := ex.st.Count(cp.Pat)
		if best < 0 || c < best {
			best = c
			primary = cp
		}
	}
	size := ex.morselSize()
	if primary == nil || best < 2*size {
		return serial
	}
	trieLevel := map[sparql.Var]int{}
	for i, v := range n.TrieVars {
		trieLevel[v] = i
	}
	it := newLFIter(ex.st, primary, trieLevel)
	p0 := it.varPos[0]
	bounds := serial
	for {
		if it.cur.Next(size) == nil {
			break
		}
		t, ok := it.cur.Head()
		if !ok {
			break
		}
		if b := tripleValue(t, p0); b != bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds
}
