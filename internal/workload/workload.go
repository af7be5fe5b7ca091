// Package workload drives benchmark workloads: it executes a query template
// over a set of parameter bindings, collects per-execution measurements
// (wall time, deterministic work, measured Cout, result size, plan
// signature) and aggregates them the way the paper's tables do (q10,
// median, q90, average), including the multi-group stability experiment of
// E2.
package workload

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/stats"
	"repro/internal/store"
)

// Measurement is the record of one query execution.
type Measurement struct {
	Binding   sparql.Binding
	Runtime   time.Duration // wall-clock
	Work      float64       // deterministic work units (noise-free runtime proxy)
	Cout      float64       // measured sum of intermediate result sizes
	EstCost   float64       // optimizer-estimated Cout
	Rows      int
	Signature string // executed plan's canonical signature
}

// Metric extracts a scalar from a measurement for aggregation.
type Metric func(Measurement) float64

// Built-in metrics.
var (
	// MetricWork is the deterministic work counter; the default for
	// reproducible experiments.
	MetricWork Metric = func(m Measurement) float64 { return m.Work }
	// MetricRuntime is wall-clock milliseconds.
	MetricRuntime Metric = func(m Measurement) float64 { return float64(m.Runtime) / float64(time.Millisecond) }
	// MetricCout is the measured cost-function value.
	MetricCout Metric = func(m Measurement) float64 { return m.Cout }
)

// Runner executes templates against one store.
type Runner struct {
	Store *store.Store
	Opts  exec.Options
	// Repetitions > 1 executes each binding that many times and reports the
	// minimum wall-clock time (best-of-k de-noises Runtime; Work and Cout
	// are deterministic and unaffected).
	Repetitions int
}

// RunOnce executes the template with a single binding.
func (r *Runner) RunOnce(tmpl *sparql.Query, b sparql.Binding) (Measurement, error) {
	bound, err := tmpl.Bind(b)
	if err != nil {
		return Measurement{}, err
	}
	c, err := plan.Compile(bound, r.Store)
	if err != nil {
		return Measurement{}, err
	}
	p, err := plan.Optimize(c, plan.NewEstimator(r.Store))
	if err != nil {
		return Measurement{}, err
	}
	reps := r.Repetitions
	if reps < 1 {
		reps = 1
	}
	var res *exec.Result
	var best time.Duration
	for i := 0; i < reps; i++ {
		out, err := exec.Run(c, p, r.Store, r.Opts)
		if err != nil {
			return Measurement{}, err
		}
		if res == nil || out.Duration < best {
			best = out.Duration
		}
		res = out
	}
	return Measurement{
		Binding:   b,
		Runtime:   best,
		Work:      res.Work,
		Cout:      res.Cout,
		EstCost:   p.EstCost,
		Rows:      len(res.Rows),
		Signature: p.Signature,
	}, nil
}

// Run executes the template once per binding, in order.
func (r *Runner) Run(tmpl *sparql.Query, bindings []sparql.Binding) ([]Measurement, error) {
	out := make([]Measurement, 0, len(bindings))
	for i, b := range bindings {
		m, err := r.RunOnce(tmpl, b)
		if err != nil {
			return nil, fmt.Errorf("workload: binding %d: %w", i, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// Values extracts the metric series from measurements.
func Values(ms []Measurement, metric Metric) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = metric(m)
	}
	return out
}

// Summarize aggregates a measurement series under the metric.
func Summarize(ms []Measurement, metric Metric) stats.Summary {
	return stats.Summarize(Values(ms, metric))
}

// DistinctPlans returns the distinct plan signatures observed, with counts.
func DistinctPlans(ms []Measurement) map[string]int {
	out := map[string]int{}
	for _, m := range ms {
		out[m.Signature]++
	}
	return out
}

// GroupResult is the aggregate of one binding group (one row block of the
// paper's E2 table).
type GroupResult struct {
	Summary      stats.Summary
	Measurements []Measurement
}

// StabilityResult is the outcome of the E2-style multi-group experiment.
type StabilityResult struct {
	Groups []GroupResult
	// Deviation of per-group aggregates across groups, as max relative
	// deviation from the cross-group mean.
	AvgDeviation    float64
	MedianDeviation float64
	Q10Deviation    float64
	Q90Deviation    float64
}

// GroupStability draws k independent groups of n bindings from the sampler
// and aggregates each separately — the paper's E2 experiment ("we sample 4
// independent groups of parameter bindings (100 bindings in each group)").
func (r *Runner) GroupStability(tmpl *sparql.Query, sampler core.Sampler, k, n int, metric Metric) (*StabilityResult, error) {
	if k < 2 || n < 1 {
		return nil, fmt.Errorf("workload: need k >= 2 groups and n >= 1 bindings")
	}
	res := &StabilityResult{}
	var avgs, medians, q10s, q90s []float64
	for g := 0; g < k; g++ {
		ms, err := r.Run(tmpl, sampler.Sample(n))
		if err != nil {
			return nil, err
		}
		sum := Summarize(ms, metric)
		res.Groups = append(res.Groups, GroupResult{Summary: sum, Measurements: ms})
		avgs = append(avgs, sum.Mean)
		medians = append(medians, sum.Median)
		q10s = append(q10s, sum.Q10)
		q90s = append(q90s, sum.Q90)
	}
	res.AvgDeviation = stats.MaxRelativeDeviation(avgs)
	res.MedianDeviation = stats.MaxRelativeDeviation(medians)
	res.Q10Deviation = stats.MaxRelativeDeviation(q10s)
	res.Q90Deviation = stats.MaxRelativeDeviation(q90s)
	return res, nil
}
