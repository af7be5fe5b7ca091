// Command paramgen generates parameter bindings for a benchmark query
// template — either uniformly at random (the baseline the paper shows to be
// inadequate) or curated via the paper's domain clustering.
//
// Usage:
//
//	paramgen -dataset bsbm -query q4 -mode uniform -n 100
//	paramgen -dataset bsbm -query q4 -mode curated -n 100 -epsilon 1.0
//	paramgen -dataset snb  -query q3 -mode curated -summary
//
// Curated output is grouped per class (Q4a, Q4b, …), one binding per line:
//
//	Q4a  ProductType=<http://bsbm.example.org/ProductType17>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sparql"
	"repro/internal/workload"
)

func main() {
	var (
		dataset = flag.String("dataset", "bsbm", "dataset: bsbm | snb")
		scale   = flag.String("scale", "test", "scale preset: test | default")
		query   = flag.String("query", "q4", "query template: bsbm q1|q2|q3|q4|q5|q6, snb q1|q2|q3|q4")
		mode    = flag.String("mode", "uniform", "sampling mode: uniform | curated")
		n       = flag.Int("n", 100, "bindings to emit (per class in curated mode)")
		epsilon = flag.Float64("epsilon", core.DefaultEpsilon, "cost-band width for clustering")
		minSize = flag.Int("minclass", 1, "drop classes smaller than this")
		seed    = flag.Int64("seed", 1, "sampling seed")
		summary = flag.Bool("summary", false, "print clustering summary instead of bindings")
	)
	flag.Parse()
	if err := run(os.Stdout, *dataset, *scale, *query, *mode, *n, *epsilon, *minSize, *seed, *summary); err != nil {
		fmt.Fprintln(os.Stderr, "paramgen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, dataset, scale, query, mode string, n int, epsilon float64, minSize int, seed int64, summary bool) error {
	st, tmpl, name, err := workload.Resolve(dataset, scale, query, seed, "")
	if err != nil {
		return err
	}
	dom, err := core.ExtractDomain(tmpl, st)
	if err != nil {
		return err
	}
	switch mode {
	case "uniform":
		s := core.NewUniformSampler(dom, seed)
		for _, b := range s.Sample(n) {
			fmt.Fprintln(w, formatBinding(name, b))
		}
		return nil
	case "curated":
		a, err := core.Analyze(tmpl, st, dom, core.AnalyzeOptions{Seed: seed})
		if err != nil {
			return err
		}
		cl := core.Cluster(a, core.ClusterOptions{Epsilon: epsilon, MinClassSize: minSize})
		if summary {
			fmt.Fprint(w, cl.Summary())
			return nil
		}
		for _, cq := range core.Curate(name, cl, seed) {
			for _, b := range cq.Sampler.Sample(n) {
				fmt.Fprintln(w, formatBinding(cq.Name, b))
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown mode %q (want uniform or curated)", mode)
	}
}

func formatBinding(label string, b sparql.Binding) string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(b)+1)
	parts = append(parts, label)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, b[sparql.Param(k)]))
	}
	return strings.Join(parts, "\t")
}
