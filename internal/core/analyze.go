package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Point is the analysis record of one parameter binding: the optimal plan's
// canonical signature and estimated Cout for the template instantiated with
// that binding.
type Point struct {
	Binding   sparql.Binding
	Signature string
	Cost      float64 // estimated Cout of the optimal plan
	Card      float64 // estimated result cardinality
}

// Analysis is the per-binding plan/cost analysis of a template's domain.
type Analysis struct {
	Template *sparql.Query
	Domain   *Domain
	Points   []Point
	// Exhaustive reports whether every domain binding was analyzed (true
	// when the domain is not larger than the configured cap).
	Exhaustive bool
}

// AnalyzeOptions configures Analyze.
type AnalyzeOptions struct {
	// MaxBindings caps how many bindings are analyzed; a larger domain is
	// sampled deterministically. Zero means DefaultMaxBindings.
	MaxBindings int
	// Seed drives the domain subsampling (not the analysis itself, which is
	// deterministic).
	Seed int64
	// UseGreedy switches the per-binding optimizer from exact DP to the
	// greedy heuristic (for the ablation study).
	UseGreedy bool
	// Parallelism bounds the worker pool analyzing bindings. Bindings are
	// independent (each is compiled and optimized against the immutable
	// store), so they fan out across workers; results are written back by
	// binding index, making the output byte-identical to a serial run.
	// Zero means runtime.GOMAXPROCS(0); 1 forces serial analysis.
	Parallelism int
}

// DefaultMaxBindings caps analysis work for large cross-product domains.
const DefaultMaxBindings = 2000

// Analyze instantiates the template for (a sample of) the domain and
// records the optimal plan signature and cost per binding.
func Analyze(tmpl *sparql.Query, st *store.Store, dom *Domain, opts AnalyzeOptions) (*Analysis, error) {
	if dom == nil {
		var err error
		dom, err = ExtractDomain(tmpl, st)
		if err != nil {
			return nil, err
		}
	}
	maxB := opts.MaxBindings
	if maxB <= 0 {
		maxB = DefaultMaxBindings
	}
	a := &Analysis{Template: tmpl, Domain: dom}
	size := dom.Size()
	indices := domainIndices(size, maxB, opts.Seed)
	a.Exhaustive = size <= maxB
	bindings := make([]sparql.Binding, len(indices))
	for i, idx := range indices {
		bindings[i] = dom.At(idx)
	}
	points, err := analyzeBindings(tmpl, st, bindings, opts)
	if err != nil {
		return nil, err
	}
	a.Points = append(a.Points, points...)
	return a, nil
}

// analyzeBindings optimizes the template once per binding, fanning the
// independent bindings out across a bounded worker pool. Point i of the
// result always corresponds to bindings[i], so the output is byte-identical
// regardless of scheduling — parallel and serial runs agree exactly.
func analyzeBindings(tmpl *sparql.Query, st *store.Store, bindings []sparql.Binding, opts AnalyzeOptions) ([]Point, error) {
	points := make([]Point, len(bindings))
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(bindings) {
		workers = len(bindings)
	}
	if workers <= 1 {
		est := plan.NewEstimator(st)
		for i, b := range bindings {
			p, err := analyzeOne(tmpl, st, est, b, opts.UseGreedy)
			if err != nil {
				return nil, fmt.Errorf("core: optimizing binding %d: %w", i, err)
			}
			points[i] = p
		}
		return points, nil
	}
	var (
		next   atomic.Int64
		minErr atomic.Int64 // lowest failing binding index so far
		wg     sync.WaitGroup
	)
	minErr.Store(int64(len(bindings)))
	errs := make([]error, len(bindings)) // each index written by one worker
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The estimator only reads immutable store statistics, but give
			// each worker its own instance so future stateful estimators
			// (caching, sampling) stay race-free.
			est := plan.NewEstimator(st)
			for {
				i := int(next.Add(1)) - 1
				// Workers abandon only indices at or above the lowest
				// failure, so every lower index is still attempted and the
				// reported error is exactly the serial run's, regardless of
				// scheduling.
				if i >= len(bindings) || int64(i) >= minErr.Load() {
					return
				}
				p, err := analyzeOne(tmpl, st, est, bindings[i], opts.UseGreedy)
				if err != nil {
					errs[i] = fmt.Errorf("core: optimizing binding %d: %w", i, err)
					for {
						cur := minErr.Load()
						if int64(i) >= cur || minErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					return
				}
				points[i] = p
			}
		}()
	}
	wg.Wait()
	if idx := int(minErr.Load()); idx < len(bindings) {
		return nil, errs[idx]
	}
	return points, nil
}

// analyzeOne compiles and optimizes the template for one binding.
func analyzeOne(tmpl *sparql.Query, st *store.Store, est *plan.Estimator, b sparql.Binding, useGreedy bool) (Point, error) {
	bound, err := tmpl.Bind(b)
	if err != nil {
		return Point{}, err
	}
	c, err := plan.Compile(bound, st)
	if err != nil {
		return Point{}, err
	}
	var p *plan.Plan
	if useGreedy {
		p, err = plan.OptimizeGreedy(c, est)
	} else {
		p, err = plan.Optimize(c, est)
	}
	if err != nil {
		return Point{}, err
	}
	return Point{
		Binding:   b,
		Signature: p.Signature,
		Cost:      p.EstCost,
		Card:      p.EstCard,
	}, nil
}

// domainIndices returns the binding indices to analyze: all of them when
// size <= maxB, otherwise a deterministic uniform sample without
// replacement.
func domainIndices(size, maxB int, seed int64) []int {
	if size <= maxB {
		out := make([]int, size)
		for i := range out {
			out[i] = i
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int]bool, maxB)
	out := make([]int, 0, maxB)
	for len(out) < maxB {
		i := rng.Intn(size)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
