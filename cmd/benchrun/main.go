// Command benchrun executes a query-template workload and prints the
// aggregate tables the paper reports: per-group q10/median/q90/average
// under uniform sampling, or per-class aggregates under curated sampling.
//
// Usage:
//
//	benchrun -dataset snb  -query q2 -mode uniform -groups 4 -n 100
//	benchrun -dataset bsbm -query q4 -mode curated -n 50
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/report"
	"repro/internal/snb"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	var (
		dataset = flag.String("dataset", "bsbm", "dataset: bsbm | snb")
		scale   = flag.String("scale", "test", "scale preset: test | default")
		query   = flag.String("query", "q4", "query template: bsbm q1|q2|q3|q4|q5|q6, snb q1|q2|q3|q4")
		mode    = flag.String("mode", "uniform", "sampling mode: uniform | curated")
		groups  = flag.Int("groups", 4, "independent binding groups (uniform mode)")
		n       = flag.Int("n", 100, "bindings per group / per class")
		seed    = flag.Int64("seed", 1, "seed")
		greedy  = flag.Bool("greedy", false, "use the greedy optimizer instead of DP")
		par     = flag.Int("parallelism", 1, "intra-query workers for morsel-driven parallel pipelines (1 = serial; measured work/Cout stay bit-identical at any setting)")
		snap    = flag.String("snapshot", "", "load the store from this snapshot or N-Triples file instead of generating")
	)
	flag.Parse()
	if err := run(os.Stdout, *dataset, *scale, *query, *mode, *snap, *groups, *n, *seed, *par, *greedy); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, dataset, scale, query, mode, snapshot string, groups, n int, seed int64, parallelism int, greedy bool) error {
	st, tmpl, name, err := load(dataset, scale, query, seed, snapshot)
	if err != nil {
		return err
	}
	r := &workload.Runner{Store: st, Opts: exec.Options{Parallelism: parallelism}, UseGreedy: greedy}
	dom, err := core.ExtractDomain(tmpl, st)
	if err != nil {
		return err
	}
	switch mode {
	case "uniform":
		res, err := r.GroupStability(tmpl, core.NewUniformSampler(dom, seed), groups, n, workload.MetricWork)
		if err != nil {
			return err
		}
		headers := []string{"Time (work units)"}
		for g := range res.Groups {
			headers = append(headers, fmt.Sprintf("Group %d", g+1))
		}
		t := report.NewTable(fmt.Sprintf("%s %s: %d uniform groups × %d bindings", dataset, name, groups, n), headers...)
		addRow := func(rowName string, pick func(workload.GroupResult) float64) {
			row := []string{rowName}
			for _, g := range res.Groups {
				row = append(row, report.FormatFloat(pick(g)))
			}
			t.Add(row...)
		}
		addRow("q10", func(g workload.GroupResult) float64 { return g.Summary.Q10 })
		addRow("Median", func(g workload.GroupResult) float64 { return g.Summary.Median })
		addRow("q90", func(g workload.GroupResult) float64 { return g.Summary.Q90 })
		addRow("Average", func(g workload.GroupResult) float64 { return g.Summary.Mean })
		fmt.Fprint(w, t)
		fmt.Fprintf(w, "\nmax relative deviation: avg %.0f%%  median %.0f%%  q10 %.0f%%  q90 %.0f%%\n",
			res.AvgDeviation*100, res.MedianDeviation*100, res.Q10Deviation*100, res.Q90Deviation*100)
		return nil
	case "curated":
		a, err := core.Analyze(tmpl, st, dom, core.AnalyzeOptions{Seed: seed})
		if err != nil {
			return err
		}
		cl := core.Cluster(a, core.ClusterOptions{MinClassSize: 2, MergeSmall: true})
		fmt.Fprint(w, cl.Summary())
		t := report.NewTable("per-class aggregates (work units)",
			"class", "n", "min", "median", "mean", "q95", "max", "#plans")
		for _, cq := range core.Curate(name, cl, seed) {
			ms, err := r.Run(tmpl, cq.Sampler.Sample(n))
			if err != nil {
				return err
			}
			s := workload.Summarize(ms, workload.MetricWork)
			t.Addf(cq.Name, s.N, s.Min, s.Median, s.Mean, s.Q95, s.Max,
				fmt.Sprintf("%d", len(workload.DistinctPlans(ms))))
		}
		fmt.Fprint(w, t)
		return nil
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}

// load resolves the store and query template. With a snapshot path the
// store is loaded instead of regenerated (v4 snapshots are served straight
// from an OS file mapping, older versions deserialize through the shared
// parallel build path), which skips dataset generation entirely; the
// dataset flag still selects which template family the query name refers
// to.
func load(dataset, scale, query string, seed int64, snapshot string) (*store.Store, *sparql.Query, string, error) {
	var st *store.Store
	if snapshot != "" {
		var err error
		st, err = store.LoadAnyMapped(snapshot)
		if err != nil {
			return nil, nil, "", err
		}
	}
	switch dataset {
	case "bsbm":
		if st == nil {
			cfg := bsbm.TestConfig()
			if scale == "default" {
				cfg = bsbm.DefaultConfig()
			}
			cfg.Seed = seed
			var err error
			st, _, err = bsbm.BuildStore(cfg)
			if err != nil {
				return nil, nil, "", err
			}
		}
		switch query {
		case "q1":
			return st, bsbm.Q1(), "Q1", nil
		case "q2":
			return st, bsbm.Q2(), "Q2", nil
		case "q3":
			return st, bsbm.Q3(), "Q3", nil
		case "q4":
			return st, bsbm.Q4(), "Q4", nil
		case "q5":
			return st, bsbm.Q5(), "Q5", nil
		case "q6":
			return st, bsbm.Q6(), "Q6", nil
		}
		return nil, nil, "", fmt.Errorf("unknown bsbm query %q", query)
	case "snb":
		if st == nil {
			cfg := snb.TestConfig()
			if scale == "default" {
				cfg = snb.DefaultConfig()
			}
			cfg.Seed = seed
			var err error
			st, _, err = snb.BuildStore(cfg)
			if err != nil {
				return nil, nil, "", err
			}
		}
		switch query {
		case "q1":
			return st, snb.Q1(), "Q1", nil
		case "q2":
			return st, snb.Q2(), "Q2", nil
		case "q3":
			return st, snb.Q3(), "Q3", nil
		case "q4":
			return st, snb.Q4(), "Q4", nil
		}
		return nil, nil, "", fmt.Errorf("unknown snb query %q", query)
	}
	return nil, nil, "", fmt.Errorf("unknown dataset %q", dataset)
}
