// Command queryrun executes a SPARQL-subset query against an N-Triples
// file or a binary store snapshot, printing the optimal plan, measured
// cost, and results.
//
// Usage:
//
//	queryrun -data graph.nt -query 'SELECT * WHERE { ?s ?p ?o . } LIMIT 5'
//	queryrun -data big.snap -queryfile q.rq -explain
//	queryrun -data graph.nt -query '... %t ...' -bind t=<http://x/T1>
//
// Parameterized templates are bound with repeated -bind name=term flags,
// where term uses N-Triples syntax (<iri>, "literal", "7"^^<...>).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// bindFlags collects repeated -bind flags.
type bindFlags []string

func (b *bindFlags) String() string { return strings.Join(*b, ",") }

func (b *bindFlags) Set(v string) error {
	*b = append(*b, v)
	return nil
}

// config collects the command-line options.
type config struct {
	dataPath  string
	queryStr  string
	queryFile string
	updateRun string
	commit    bool
	binds     []string
	explain   bool
	analyze   bool
	maxRows   int
}

func main() {
	var (
		cfg   config
		binds bindFlags
	)
	flag.StringVar(&cfg.dataPath, "data", "", "N-Triples (.nt) or snapshot file (required)")
	flag.StringVar(&cfg.queryStr, "query", "", "query text")
	flag.StringVar(&cfg.queryFile, "queryfile", "", "file containing the query")
	flag.StringVar(&cfg.updateRun, "updaterun", "", "SPARQL-Update text (or @file) applied to the loaded store before the query runs; the query then sees the delta-overlaid snapshot")
	flag.BoolVar(&cfg.commit, "commit", false, "with -updaterun: fold the delta into a fresh fully indexed store instead of querying the overlay")
	flag.BoolVar(&cfg.explain, "explain", false, "print the optimized logical and physical plan trees")
	flag.BoolVar(&cfg.analyze, "analyze", false, "EXPLAIN ANALYZE: trace the execution and print the plan annotated with observed rows, wall time and Cout/Work/Scanned per operator")
	flag.IntVar(&cfg.maxRows, "maxrows", 50, "result rows to print (0 = all)")
	flag.Var(&binds, "bind", "parameter binding name=term (repeatable)")
	flag.Parse()
	cfg.binds = binds
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "queryrun:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg config) error {
	dataPath, queryStr, queryFile := cfg.dataPath, cfg.queryStr, cfg.queryFile
	binds, explain, maxRows := cfg.binds, cfg.explain, cfg.maxRows
	if dataPath == "" {
		return fmt.Errorf("-data is required")
	}
	st, err := store.LoadAnyMapped(dataPath)
	if err != nil {
		return err
	}
	if cfg.updateRun != "" {
		st, err = applyUpdate(w, st, cfg.updateRun, cfg.commit)
		if err != nil {
			return err
		}
	}
	src := queryStr
	if queryFile != "" {
		data, err := os.ReadFile(queryFile)
		if err != nil {
			return err
		}
		src = string(data)
	}
	if src == "" {
		return fmt.Errorf("one of -query or -queryfile is required")
	}
	q, err := sparql.Parse(src)
	if err != nil {
		return err
	}
	if len(binds) > 0 {
		binding, err := parseBindings(binds)
		if err != nil {
			return err
		}
		q, err = q.Bind(binding)
		if err != nil {
			return err
		}
	}
	if ps := q.Params(); len(ps) > 0 {
		return fmt.Errorf("unbound parameters %v (use -bind)", ps)
	}
	c, err := plan.Compile(q, st)
	if err != nil {
		return err
	}
	p, err := plan.Optimize(c, plan.NewEstimator(st))
	if err != nil {
		return err
	}
	var opts exec.Options
	if explain {
		phys, err := plan.Lower(c, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\nphysical:\n%s", p, phys)
	}
	var capture *obs.Capture
	if cfg.analyze {
		capture = &obs.Capture{}
		opts.Trace = capture
	}
	res, err := exec.Run(c, p, st, opts)
	if err != nil {
		return err
	}
	if capture != nil && capture.Root != nil {
		fmt.Fprintf(w, "EXPLAIN ANALYZE:\n%s", obs.Render(capture.Root))
	}
	fmt.Fprintf(w, "%d rows in %v (Cout %.0f, work %.0f, scanned %d)\n",
		len(res.Rows), res.Duration, res.Cout, res.Work, res.Scanned)
	if k := res.Kernels; k.Batches > 0 {
		fmt.Fprintf(w, "columnar: %d batches (filter %d, hash-probe %d, gather %d rows)\n",
			k.Batches, k.FilterRows, k.HashProbeRows, k.GatherRows)
	}
	if k := res.Kernels; k.LeftJoinRows > 0 || k.UnionRows > 0 || k.AggGroups > 0 {
		fmt.Fprintf(w, "algebra: left-join %d rows, union %d rows, %d groups\n",
			k.LeftJoinRows, k.UnionRows, k.AggGroups)
	}
	// Header.
	cols := make([]string, len(res.Vars))
	for i, v := range res.Vars {
		cols[i] = "?" + string(v)
	}
	fmt.Fprintln(w, strings.Join(cols, "\t"))
	d := st.Dict()
	for i, row := range res.Rows {
		if maxRows > 0 && i >= maxRows {
			fmt.Fprintf(w, "... (%d more rows)\n", len(res.Rows)-maxRows)
			break
		}
		cells := make([]string, len(row))
		for j, id := range row {
			if t, ok := d.TryDecode(id); ok {
				cells[j] = t.String()
			} else {
				cells[j] = "UNDEF" // unbound OPTIONAL/UNION column
			}
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	return nil
}

// applyUpdate runs -updaterun's SPARQL-Update (text or @file) against the
// loaded store, returning the delta overlay (or, with -commit, the folded
// store) the query will execute over.
func applyUpdate(w io.Writer, st *store.Store, arg string, commit bool) (*store.Store, error) {
	src := arg
	if strings.HasPrefix(arg, "@") {
		data, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		src = string(data)
	}
	u, err := sparql.ParseUpdate(src)
	if err != nil {
		return nil, err
	}
	d, err := exec.ApplyUpdate(st, u)
	if err != nil {
		return nil, err
	}
	if commit {
		next := d.Commit()
		fmt.Fprintf(w, "update: +%d -%d triples committed (store %d -> %d triples)\n",
			d.InsertCount(), d.DeleteCount(), st.Len(), next.Len())
		return next, nil
	}
	next := d.Overlay()
	fmt.Fprintf(w, "update: +%d -%d triples as delta overlay (store %d -> %d triples)\n",
		d.InsertCount(), d.DeleteCount(), st.Len(), next.Len())
	return next, nil
}

// parseBindings parses -bind name=term flags; the term side is N-Triples
// syntax.
func parseBindings(binds []string) (sparql.Binding, error) {
	out := sparql.Binding{}
	for _, b := range binds {
		name, termSrc, ok := strings.Cut(b, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("malformed -bind %q (want name=term)", b)
		}
		t, err := rdf.ParseTerm(termSrc)
		if err != nil {
			return nil, fmt.Errorf("-bind %s: invalid term %q: %v", name, termSrc, err)
		}
		out[sparql.Param(name)] = t
	}
	return out, nil
}
