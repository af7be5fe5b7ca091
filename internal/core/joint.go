package core

import (
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/sparql"
	"repro/internal/store"
)

// JointDomain is the set of parameter combinations that actually co-occur
// in the data. For correlated datasets (the paper's name×country example)
// most combinations of the cross-product domain match nothing; the joint
// domain is obtained by executing the template with every parameter
// replaced by a fresh variable, so each member binding is guaranteed to
// produce a non-empty result.
type JointDomain struct {
	Params   []sparql.Param
	Bindings []sparql.Binding
}

// Size returns the number of co-occurring combinations.
func (d *JointDomain) Size() int { return len(d.Bindings) }

// ExtractJointDomain enumerates the co-occurring parameter combinations of
// tmpl against st by running the "domain query" (parameters as variables,
// SELECT DISTINCT). maxRows caps the enumeration (0 means unlimited).
// Parameters that appear only in FILTERs are rejected, as in ExtractDomain.
func ExtractJointDomain(tmpl *sparql.Query, st *store.Store, maxRows int) (*JointDomain, error) {
	params := tmpl.Params()
	if len(params) == 0 {
		return nil, fmt.Errorf("core: template has no parameters")
	}
	// Parameters must occur in at least one pattern position.
	inPattern := map[sparql.Param]bool{}
	for _, tp := range tmpl.Where {
		for _, n := range []sparql.Node{tp.S, tp.P, tp.O} {
			if n.Kind == sparql.NodeParam {
				inPattern[n.Param] = true
			}
		}
	}
	for _, p := range params {
		if !inPattern[p] {
			return nil, fmt.Errorf("core: parameter %%%s occurs only in FILTER; joint domain not extractable", p)
		}
	}
	// Fresh variable names that cannot clash with user variables ('%' is
	// not a legal variable character in our grammar, but Go strings can
	// hold anything — use a reserved prefix instead and verify).
	varFor := make(map[sparql.Param]sparql.Var, len(params))
	existing := map[sparql.Var]bool{}
	for _, v := range tmpl.Vars() {
		existing[v] = true
	}
	for _, p := range params {
		v := sparql.Var("_param_" + string(p))
		for existing[v] {
			v += "_"
		}
		varFor[p] = v
	}
	subst := func(n sparql.Node) sparql.Node {
		if n.Kind == sparql.NodeParam {
			return sparql.VarNode(varFor[n.Param])
		}
		return n
	}
	dq := &sparql.Query{Distinct: true, Limit: maxRows}
	for _, p := range params {
		dq.Select = append(dq.Select, varFor[p])
	}
	for _, tp := range tmpl.Where {
		dq.Where = append(dq.Where, sparql.TriplePattern{
			S: subst(tp.S), P: subst(tp.P), O: subst(tp.O),
		})
	}
	for _, f := range tmpl.Filters {
		dq.Filters = append(dq.Filters, sparql.Filter{
			Left: subst(f.Left), Op: f.Op, Right: subst(f.Right),
		})
	}
	res, _, err := exec.Query(dq, st, exec.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: joint domain query: %w", err)
	}
	d := &JointDomain{Params: params}
	dict := st.Dict()
	for _, row := range res.Rows {
		b := make(sparql.Binding, len(params))
		for i, p := range params {
			b[p] = dict.Decode(row[i])
		}
		d.Bindings = append(d.Bindings, b)
	}
	if len(d.Bindings) == 0 {
		return nil, fmt.Errorf("core: joint domain is empty")
	}
	return d, nil
}

// JointSampler draws uniformly from the joint domain.
type JointSampler struct {
	dom *JointDomain
	rng *rand.Rand
}

// NewJointSampler returns a sampler over the joint domain.
func NewJointSampler(dom *JointDomain, seed int64) *JointSampler {
	return &JointSampler{dom: dom, rng: rand.New(rand.NewSource(seed))}
}

// Sample draws n co-occurring bindings (with replacement).
func (s *JointSampler) Sample(n int) []sparql.Binding {
	out := make([]sparql.Binding, n)
	for i := range out {
		out[i] = s.dom.Bindings[s.rng.Intn(len(s.dom.Bindings))]
	}
	return out
}

// AnalyzeBindings analyzes an explicit binding list (e.g. a joint domain)
// instead of a cross-product Domain.
func AnalyzeBindings(tmpl *sparql.Query, st *store.Store, bindings []sparql.Binding, opts AnalyzeOptions) (*Analysis, error) {
	if len(bindings) == 0 {
		return nil, fmt.Errorf("core: no bindings to analyze")
	}
	maxB := opts.MaxBindings
	if maxB <= 0 {
		maxB = DefaultMaxBindings
	}
	use := bindings
	exhaustive := true
	if len(bindings) > maxB {
		exhaustive = false
		idx := domainIndices(len(bindings), maxB, opts.Seed)
		use = make([]sparql.Binding, len(idx))
		for i, j := range idx {
			use[i] = bindings[j]
		}
	}
	a := &Analysis{Template: tmpl, Exhaustive: exhaustive}
	points, err := analyzeBindings(tmpl, st, use)
	if err != nil {
		return nil, err
	}
	a.Points = append(a.Points, points...)
	return a, nil
}
