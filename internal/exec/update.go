package exec

import (
	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// The update execution path: exec is the layer that already bridges the
// SPARQL AST and the store, so the one mapping from a parsed
// SPARQL-Update onto delta operations lives here, shared by the query
// service and the CLIs.
//
// Ground INSERT DATA / DELETE DATA ops fold straight into delta
// operations. Pattern-driven DELETE/INSERT WHERE ops evaluate their
// WHERE block as an ordinary query against the snapshot produced by the
// preceding operations of the same request (base store plus the delta
// accumulated so far, pinned via Overlay), instantiate the templates
// once per solution, and apply the op's deletions before its insertions
// — the SPARQL modify order. Instantiated triples that are not valid
// RDF (a literal subject or predicate from a WHERE binding) are skipped
// silently, matching the spec's treatment of ill-formed instantiations.

// DeltaOps maps a parsed SPARQL-Update onto the store's ordered delta
// operations. WHERE-form ops are data-dependent and cannot be mapped
// statically; callers holding those go through ApplyUpdate instead.
func DeltaOps(u *sparql.Update) []store.DeltaOp {
	ops := make([]store.DeltaOp, len(u.Ops))
	for i, op := range u.Ops {
		ops[i] = store.DeltaOp{Insert: op.Insert, Triples: op.Triples}
	}
	return ops
}

// ApplyUpdate folds u into st's pending delta (set semantics, operations
// in order) and returns the extended delta; publish it with Overlay or
// Commit. The returned delta is st's own pending delta when u changes
// nothing. WHERE-form operations see the effects of every operation
// before them in the same request.
func ApplyUpdate(st *store.Store, u *sparql.Update) (*store.Delta, error) {
	return ApplyUpdateDelta(st.NewDelta(), u)
}

// ApplyUpdateDelta is ApplyUpdate starting from an explicit delta.
// Returns d itself when u changes nothing, so callers (the query
// service) can skip republishing on pointer equality.
func ApplyUpdateDelta(d *store.Delta, u *sparql.Update) (*store.Delta, error) {
	out, err := applyUpdate(singleDelta{d}, u)
	if err != nil {
		return nil, err
	}
	return out.(singleDelta).d, nil
}

// ApplyUpdateSharded is ApplyUpdate over a sharded store's delta: the
// same operation semantics, with triples routed to their home shards.
// Returns sd itself when u changes nothing.
func ApplyUpdateSharded(sd *store.ShardedDelta, u *sparql.Update) (*store.ShardedDelta, error) {
	out, err := applyUpdate(shardedDelta{sd}, u)
	if err != nil {
		return nil, err
	}
	return out.(shardedDelta).d, nil
}

// deltaState abstracts the two delta shapes (single-store and sharded) so
// the update loop and the WHERE-form modify path are written once. Both
// adapters preserve the underlying no-change pointer identity.
type deltaState interface {
	applyOps(ops []store.DeltaOp) (deltaState, error)
	overlay() store.Source
}

type singleDelta struct{ d *store.Delta }

func (s singleDelta) applyOps(ops []store.DeltaOp) (deltaState, error) {
	nd, err := s.d.ApplyOps(ops)
	if err != nil {
		return nil, err
	}
	return singleDelta{nd}, nil
}
func (s singleDelta) overlay() store.Source { return s.d.Overlay() }

type shardedDelta struct{ d *store.ShardedDelta }

func (s shardedDelta) applyOps(ops []store.DeltaOp) (deltaState, error) {
	nd, err := s.d.ApplyOps(ops)
	if err != nil {
		return nil, err
	}
	return shardedDelta{nd}, nil
}
func (s shardedDelta) overlay() store.Source { return s.d.Overlay().Source() }

func applyUpdate(d deltaState, u *sparql.Update) (deltaState, error) {
	if !u.HasWhere() {
		return d.applyOps(DeltaOps(u))
	}
	var err error
	for i := range u.Ops {
		op := &u.Ops[i]
		if !op.IsWhere() {
			d, err = d.applyOps([]store.DeltaOp{{Insert: op.Insert, Triples: op.Triples}})
		} else {
			d, err = applyModify(d, op)
		}
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// applyModify executes one DELETE/INSERT WHERE op against the overlay of
// the delta accumulated so far and folds the instantiated triples in,
// deletions first.
func applyModify(d deltaState, op *sparql.UpdateOp) (deltaState, error) {
	snap := d.overlay()
	res, _, err := Query(op.WhereQuery(), snap, Options{})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return d, nil
	}
	col := make(map[sparql.Var]int, len(res.Vars))
	for i, v := range res.Vars {
		col[v] = i
	}
	dd := snap.Dict()
	var del, ins []rdf.Triple
	for _, row := range res.Rows {
		del = appendInstantiated(del, op.DeleteTmpl, col, row, dd)
		ins = appendInstantiated(ins, op.InsertTmpl, col, row, dd)
	}
	var ops []store.DeltaOp
	if len(del) > 0 {
		ops = append(ops, store.DeltaOp{Triples: del})
	}
	if len(ins) > 0 {
		ops = append(ops, store.DeltaOp{Insert: true, Triples: ins})
	}
	return d.applyOps(ops)
}

// appendInstantiated appends tmpl instantiated under one solution row,
// skipping instantiations that do not form valid RDF triples. The parser
// guarantees every template variable is bound by the WHERE block, so
// every row binding exists and is a real term.
func appendInstantiated(out []rdf.Triple, tmpl []sparql.TriplePattern, col map[sparql.Var]int, row []dict.ID, dd *dict.Dict) []rdf.Triple {
	for _, tp := range tmpl {
		s, okS := instantiateNode(tp.S, col, row, dd)
		p, okP := instantiateNode(tp.P, col, row, dd)
		o, okO := instantiateNode(tp.O, col, row, dd)
		if !okS || !okP || !okO {
			continue
		}
		t := rdf.Triple{S: s, P: p, O: o}
		if !t.Valid() {
			continue
		}
		out = append(out, t)
	}
	return out
}

func instantiateNode(n sparql.Node, col map[sparql.Var]int, row []dict.ID, dd *dict.Dict) (rdf.Term, bool) {
	if n.Kind != sparql.NodeVar {
		return n.Term, true
	}
	i, ok := col[n.Var]
	if !ok {
		return rdf.Term{}, false
	}
	return dd.TryDecode(row[i])
}
