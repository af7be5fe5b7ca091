package exec

import (
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Query runs the full pipeline — compile, optimize (exact DP where
// feasible), execute — and returns both the result and the plan that
// produced it.
func Query(q *sparql.Query, st store.Source, opts Options) (*Result, *plan.Plan, error) {
	c, err := plan.Compile(q, st)
	if err != nil {
		return nil, nil, err
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		return nil, nil, err
	}
	res, err := Run(c, p, st, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, p, nil
}
