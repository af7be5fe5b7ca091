// Package difftest implements the differential test harness for the query
// engine and the updatable store: a seeded generator produces random
// datasets, random update histories (ground INSERT DATA / DELETE DATA plus
// pattern-driven DELETE/INSERT WHERE ops) and random queries — BGPs with
// filters and DISTINCT/ORDER BY/LIMIT/OFFSET modifiers, star BGPs, and
// OPTIONAL/UNION/aggregate compositions — and every query runs serially and
// at Parallelism 2 and 8 over the pristine store, the delta-overlaid store
// and a store rebuilt from scratch over the equivalent triple set. The
// three runs of one (store, query) pair must be byte-identical in rows AND
// accounting (Cout/Work/Scanned), and their rows must match the naive
// oracle (oracle.go), which evaluates the query straight from its AST. The
// overlay and the rebuilt store must also agree byte-for-byte with each
// other, because the rebuilt reference shares the overlay's dictionary IDs
// and the overlay's statistics are exact, so the optimizer provably picks
// the same plan over either.
//
// Everything is driven by a single int64 seed; a failing scenario reports
// it, and setting DIFFTEST_SEED reruns exactly that scenario. When
// DIFFTEST_OUT is set, the failing scenario (seed, query, stores) is also
// written there as JSON so CI can upload it as a reproduction artifact.
package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Scenario is one generated differential-testing world: a base store, an
// update history, the resulting overlay, and the independently rebuilt
// reference store.
type Scenario struct {
	Seed    int64
	Base    *store.Store
	Delta   *store.Delta
	Overlay *store.Store
	Rebuilt *store.Store
	Updates []*sparql.Update // the applied history, for reproduction dumps
	vocabP  []rdf.Term       // predicate vocabulary for query generation
	vocabS  []rdf.Term
	vocabO  []rdf.Term
}

// GenScenario builds the world for one seed: a random dataset, a random
// update history applied through store.Delta, and the rebuilt reference.
func GenScenario(seed int64) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := &Scenario{Seed: seed}

	nSub := 10 + rng.Intn(30)
	nPred := 3 + rng.Intn(5)
	nObj := 8 + rng.Intn(25)
	nClass := 1 + rng.Intn(3)
	for i := 0; i < nPred; i++ {
		sc.vocabP = append(sc.vocabP, rdf.NewIRI(fmt.Sprintf("http://d/p%d", i)))
	}
	sc.vocabP = append(sc.vocabP, rdf.NewIRI(rdf.RDFType))
	for i := 0; i < nSub; i++ {
		sc.vocabS = append(sc.vocabS, rdf.NewIRI(fmt.Sprintf("http://d/s%d", i)))
	}
	for i := 0; i < nObj; i++ {
		switch rng.Intn(3) {
		case 0:
			sc.vocabO = append(sc.vocabO, rdf.NewTypedLiteral(fmt.Sprintf("%d", rng.Intn(100)), rdf.XSDInteger))
		case 1:
			sc.vocabO = append(sc.vocabO, rdf.NewLiteral(fmt.Sprintf("v%d", i)))
		default:
			sc.vocabO = append(sc.vocabO, rdf.NewIRI(fmt.Sprintf("http://d/o%d", i)))
		}
	}
	for i := 0; i < nClass; i++ {
		sc.vocabO = append(sc.vocabO, rdf.NewIRI(fmt.Sprintf("http://d/Class%d", i)))
	}
	// Objects double as subjects occasionally (IRIs only), so joins chain.
	randTriple := func() rdf.Triple {
		s := sc.vocabS[rng.Intn(len(sc.vocabS))]
		p := sc.vocabP[rng.Intn(len(sc.vocabP))]
		o := sc.vocabO[rng.Intn(len(sc.vocabO))]
		if p.Value == rdf.RDFType {
			o = rdf.NewIRI(fmt.Sprintf("http://d/Class%d", rng.Intn(nClass)))
		}
		return rdf.Triple{S: s, P: p, O: o}
	}

	b := store.NewBuilder()
	nBase := 50 + rng.Intn(250)
	for i := 0; i < nBase; i++ {
		if err := b.Add(randTriple()); err != nil {
			return nil, err
		}
	}
	sc.Base = b.Build()

	// Update history: a few batches of inserts, deletes and pattern-driven
	// WHERE ops, expressed as parsed SPARQL-Update requests and applied
	// through exec.ApplyUpdateDelta so the harness exercises the same code
	// path the service does.
	d := sc.Base.NewDelta()
	batches := 1 + rng.Intn(4)
	for bi := 0; bi < batches; bi++ {
		var ops []string
		nIns := rng.Intn(20)
		if nIns > 0 {
			var lines []string
			for i := 0; i < nIns; i++ {
				lines = append(lines, "  "+randTriple().String())
			}
			ops = append(ops, "INSERT DATA {\n"+strings.Join(lines, "\n")+"\n}")
		}
		cur, _ := d.Overlay().Match(store.Pattern{})
		nDel := rng.Intn(12)
		if nDel > 0 && len(cur) > 0 {
			var lines []string
			dd := sc.Base.Dict()
			for i := 0; i < nDel; i++ {
				tr := cur[rng.Intn(len(cur))]
				lines = append(lines, "  "+rdf.Triple{S: dd.Decode(tr.S), P: dd.Decode(tr.P), O: dd.Decode(tr.O)}.String())
			}
			ops = append(ops, "DELETE DATA {\n"+strings.Join(lines, "\n")+"\n}")
		}
		// Occasionally a pattern-driven op: delete a predicate's edges,
		// derive a new predicate, or rename one — the WHERE runs against
		// the snapshot left by the preceding ops of the same request.
		if rng.Intn(2) == 0 {
			p := sc.vocabP[rng.Intn(len(sc.vocabP))].String()
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, fmt.Sprintf("DELETE WHERE { ?s %s ?o . }", p))
			case 1:
				ops = append(ops, fmt.Sprintf("INSERT { ?s <http://d/w%d> ?o . } WHERE { ?s %s ?o . }", bi, p))
			default:
				p2 := sc.vocabP[rng.Intn(len(sc.vocabP))].String()
				ops = append(ops, fmt.Sprintf("DELETE { ?s %s ?o . } INSERT { ?s %s ?o . } WHERE { ?s %s ?o . }", p, p2, p))
			}
		}
		if len(ops) == 0 {
			continue
		}
		u, err := sparql.ParseUpdate(strings.Join(ops, " ;\n"))
		if err != nil {
			return nil, fmt.Errorf("seed %d: generated update does not parse: %w", seed, err)
		}
		sc.Updates = append(sc.Updates, u)
		d, err = exec.ApplyUpdateDelta(d, u)
		if err != nil {
			return nil, err
		}
	}
	sc.Delta = d
	sc.Overlay = d.Overlay()

	// The reference store: rebuilt from scratch over the merged triple
	// set, onto a fresh dictionary pre-seeded with the overlay
	// dictionary's terms in ID order so both stores assign identical IDs
	// (and therefore identical index orders, statistics and plans).
	rb := store.NewBuilder()
	od := sc.Overlay.Dict()
	for id := dict.ID(1); int(id) <= od.Len(); id++ {
		if got := rb.Dict().Encode(od.Decode(id)); got != id {
			return nil, fmt.Errorf("seed %d: reference dictionary drift at id %d", seed, id)
		}
	}
	merged, _ := sc.Overlay.Match(store.Pattern{})
	for _, tr := range merged {
		rb.AddID(tr)
	}
	sc.Rebuilt = rb.Build()
	return sc, nil
}

// GenQuery produces one random BGP query over the scenario's vocabulary:
// 1–3 triple patterns chained through shared variables, with random
// constants, optional FILTER comparisons and random DISTINCT / ORDER BY /
// LIMIT / OFFSET modifiers. The query is rendered and re-parsed so the
// harness also covers the parser round trip.
func (sc *Scenario) GenQuery(rng *rand.Rand) (*sparql.Query, error) {
	vars := []sparql.Var{"a", "b", "c", "d"}
	nPat := 1 + rng.Intn(3)
	q := &sparql.Query{}
	usedVars := map[sparql.Var]bool{}
	pickVar := func() sparql.Var {
		// Prefer a used variable so patterns connect.
		if len(usedVars) > 0 && rng.Intn(3) > 0 {
			for {
				v := vars[rng.Intn(len(vars))]
				if usedVars[v] {
					return v
				}
			}
		}
		v := vars[rng.Intn(len(vars))]
		usedVars[v] = true
		return v
	}
	for i := 0; i < nPat; i++ {
		var tp sparql.TriplePattern
		// Subject: variable (75%) or constant.
		if rng.Intn(4) > 0 {
			tp.S = sparql.VarNode(pickVar())
		} else {
			tp.S = sparql.TermNode(sc.vocabS[rng.Intn(len(sc.vocabS))])
		}
		// Predicate: constant (80%) or variable.
		if rng.Intn(5) > 0 {
			tp.P = sparql.TermNode(sc.vocabP[rng.Intn(len(sc.vocabP))])
		} else {
			tp.P = sparql.VarNode(pickVar())
		}
		// Object: variable (60%) or constant.
		if rng.Intn(5) >= 2 {
			tp.O = sparql.VarNode(pickVar())
		} else {
			tp.O = sparql.TermNode(sc.vocabO[rng.Intn(len(sc.vocabO))])
		}
		q.Where = append(q.Where, tp)
	}
	var varList []sparql.Var
	for _, v := range vars {
		if usedVars[v] {
			varList = append(varList, v)
		}
	}
	// Filters over used variables.
	if len(varList) > 0 {
		for i := 0; i < rng.Intn(3); i++ {
			f := sparql.Filter{
				Left: sparql.VarNode(varList[rng.Intn(len(varList))]),
				Op:   sparql.CompareOp(rng.Intn(6)),
			}
			if rng.Intn(2) == 0 {
				f.Right = sparql.TermNode(rdf.NewTypedLiteral(fmt.Sprintf("%d", rng.Intn(100)), rdf.XSDInteger))
			} else {
				f.Right = sparql.VarNode(varList[rng.Intn(len(varList))])
			}
			q.Filters = append(q.Filters, f)
		}
	}
	// Modifiers.
	if rng.Intn(3) == 0 {
		q.Distinct = true
	}
	if len(varList) > 0 && rng.Intn(2) == 0 {
		n := 1 + rng.Intn(2)
		for i := 0; i < n && i < len(varList); i++ {
			q.OrderBy = append(q.OrderBy, sparql.OrderKey{Var: varList[i], Desc: rng.Intn(2) == 0})
		}
	}
	if len(varList) > 0 && rng.Intn(3) == 0 {
		// Project a subset.
		q.Select = varList[:1+rng.Intn(len(varList))]
	}
	switch rng.Intn(4) {
	case 0:
		q.Limit = rng.Intn(20) // includes LIMIT 0
		q.HasLimit = true
	case 1:
		q.Offset = rng.Intn(30) // may run past the result
	case 2:
		q.Limit = rng.Intn(10)
		q.HasLimit = true
		q.Offset = rng.Intn(10)
	}
	// Round-trip through the text form.
	parsed, err := sparql.Parse(q.String())
	if err != nil {
		return nil, fmt.Errorf("generated query does not re-parse: %w\n%s", err, q.String())
	}
	return parsed, nil
}

// Canonical renders an execution result into one comparable string: the
// schema, the accounting, and every row decoded through d. Unbound
// columns (OPTIONAL/UNION padding) render as UNDEF.
func Canonical(d *dict.Dict, res *exec.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vars=%v cout=%v work=%v scanned=%d rows=%d\n",
		res.Vars, res.Cout, res.Work, res.Scanned, len(res.Rows))
	for _, row := range res.Rows {
		for j, id := range row {
			if j > 0 {
				sb.WriteByte('\t')
			}
			if t, ok := d.TryDecode(id); ok {
				sb.WriteString(t.String())
			} else {
				sb.WriteString("UNDEF")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CheckOracle compares res, the engine's answer to q over st, with the
// oracle's: the same variables and the same row multiset. Under OFFSET or
// LIMIT the engine may return any window its ORDER BY admits, so a sliced
// result is checked for its row count, containment in the oracle's unsliced
// rows and — when every ORDER BY key is an output column — the sequence of
// sort keys.
func CheckOracle(q *sparql.Query, st store.Source, res *exec.Result) error {
	want, err := evalQuery(st, q)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	vars := slices.Sorted(slices.Values(want.vars))
	if got := slices.Sorted(slices.Values(res.Vars)); !slices.Equal(got, vars) {
		return fmt.Errorf("oracle: vars %v, want %v", res.Vars, want.vars)
	}
	rows := make([]solution, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = solution{}
		for j, id := range row {
			if t, ok := st.Dict().TryDecode(id); ok {
				rows[i][res.Vars[j]] = t
			}
		}
	}
	lo, hi := min(q.Offset, len(want.rows)), len(want.rows)
	if n, ok := q.LimitCount(); ok {
		hi = min(hi, lo+n)
	}
	if len(rows) != hi-lo {
		return fmt.Errorf("oracle: %d rows, want %d", len(rows), hi-lo)
	}
	left := map[string]int{}
	for _, s := range want.rows {
		left[rowKey(s, vars)]++
	}
	for _, s := range rows {
		k := rowKey(s, vars)
		if left[k] == 0 {
			return fmt.Errorf("oracle: row %q is not in the oracle's result (or appears too often)", k)
		}
		left[k]--
	}
	for _, k := range q.OrderBy {
		if !slices.Contains(want.vars, k.Var) {
			return nil
		}
	}
	for i, s := range rows {
		if w := want.rows[lo+i]; orderLess(s, w, q.OrderBy) || orderLess(w, s, q.OrderBy) {
			return fmt.Errorf("oracle: row %d sorts as %q, want %q", i, rowKey(s, vars), rowKey(w, vars))
		}
	}
	return nil
}

// EngineRun names one cell of the execution matrix.
type EngineRun struct {
	Name string
	Opts exec.Options
}

// EngineMatrix is the cross-checked configurations: serial, and
// Parallelism 2 and 8 with tiny morsels so test-scale stores genuinely
// split (including single-triple morsels).
func EngineMatrix() []EngineRun {
	return []EngineRun{
		{Name: "serial", Opts: exec.Options{}},
		{Name: "p2-m1", Opts: exec.Options{Parallelism: 2, MorselSize: 1}},
		{Name: "p8-m16", Opts: exec.Options{Parallelism: 8, MorselSize: 16}},
	}
}

// GenStarQuery produces one random star-shaped BGP: 4–6 triple patterns
// all sharing the hub variable ?h, each with a distinct leaf variable or
// constant at the other end. Filters, DISTINCT, ORDER BY and projection are
// generated as usual, but never LIMIT/OFFSET: those select a prefix of a
// plan-dependent row order, so the runs are checked against the oracle as
// whole multisets.
func (sc *Scenario) GenStarQuery(rng *rand.Rand) (*sparql.Query, error) {
	leafVars := []sparql.Var{"a", "b", "c", "d", "e", "f"}
	nPat := 4 + rng.Intn(3)
	q := &sparql.Query{}
	used := []sparql.Var{"h"}
	for i := 0; i < nPat; i++ {
		var tp sparql.TriplePattern
		hubAtSubject := rng.Intn(4) > 0
		// Each pattern may spend its fresh variable on the predicate (10%)
		// or the non-hub end (70%), never both: patterns stay free of
		// repeated variables.
		predVar := rng.Intn(10) == 0
		if predVar {
			tp.P = sparql.VarNode(leafVars[i])
			used = append(used, leafVars[i])
		} else {
			tp.P = sparql.TermNode(sc.vocabP[rng.Intn(len(sc.vocabP))])
		}
		var leaf sparql.Node
		switch {
		case !predVar && rng.Intn(10) < 7:
			leaf = sparql.VarNode(leafVars[i])
			used = append(used, leafVars[i])
		case hubAtSubject:
			leaf = sparql.TermNode(sc.vocabO[rng.Intn(len(sc.vocabO))])
		default:
			leaf = sparql.TermNode(sc.vocabS[rng.Intn(len(sc.vocabS))])
		}
		if hubAtSubject {
			tp.S, tp.O = sparql.VarNode("h"), leaf
		} else {
			tp.S, tp.O = leaf, sparql.VarNode("h")
		}
		q.Where = append(q.Where, tp)
	}
	for i := 0; i < rng.Intn(2); i++ {
		f := sparql.Filter{
			Left: sparql.VarNode(used[rng.Intn(len(used))]),
			Op:   sparql.CompareOp(rng.Intn(6)),
		}
		if rng.Intn(2) == 0 {
			f.Right = sparql.TermNode(rdf.NewTypedLiteral(fmt.Sprintf("%d", rng.Intn(100)), rdf.XSDInteger))
		} else {
			f.Right = sparql.VarNode(used[rng.Intn(len(used))])
		}
		q.Filters = append(q.Filters, f)
	}
	if rng.Intn(3) == 0 {
		q.Distinct = true
	}
	if rng.Intn(2) == 0 {
		q.OrderBy = append(q.OrderBy, sparql.OrderKey{Var: used[rng.Intn(len(used))], Desc: rng.Intn(2) == 0})
	}
	if rng.Intn(3) == 0 {
		q.Select = used[:1+rng.Intn(len(used))]
	}
	parsed, err := sparql.Parse(q.String())
	if err != nil {
		return nil, fmt.Errorf("generated star query does not re-parse: %w\n%s", err, q.String())
	}
	return parsed, nil
}

// RunQuery executes q over st with every engine configuration, checks all
// results agree byte-for-byte and the first matches the oracle; it returns
// the canonical result, or an error naming the first diverging cell.
func RunQuery(q *sparql.Query, st store.Source, label string) (string, error) {
	var ref, refName string
	for _, er := range EngineMatrix() {
		res, _, err := exec.Query(q, st, er.Opts)
		if err != nil {
			return "", fmt.Errorf("%s/%s: %w", label, er.Name, err)
		}
		got := Canonical(st.Dict(), res)
		if ref == "" {
			if err := CheckOracle(q, st, res); err != nil {
				return "", fmt.Errorf("%s/%s: %w", label, er.Name, err)
			}
			ref, refName = got, er.Name
			continue
		}
		if got != ref {
			return "", fmt.Errorf("%s: engine %s diverges from %s\n--- %s\n%s\n--- %s\n%s",
				label, er.Name, refName, refName, ref, er.Name, got)
		}
	}
	return ref, nil
}

// GenAlgebraQuery produces one random compositional query over the
// scenario's vocabulary: a base BGP extended with an OPTIONAL group, a
// UNION, or GROUP BY + aggregation (sometimes combined), with the usual
// random filters and modifiers. The query is generated as text and
// re-parsed so the harness also covers the extended grammar.
func (sc *Scenario) GenAlgebraQuery(rng *rand.Rand) (*sparql.Query, error) {
	pred := func() string { return sc.vocabP[rng.Intn(len(sc.vocabP))].String() }
	var b strings.Builder
	shape := rng.Intn(4)
	agg := shape == 2 || (shape == 3 && rng.Intn(2) == 0)
	if agg {
		fn := []string{"COUNT(?b)", "COUNT(DISTINCT ?b)", "SUM(?b)", "MIN(?b)", "MAX(?b)", "AVG(?b)"}[rng.Intn(6)]
		b.WriteString("SELECT ?a (COUNT(*) AS ?n) (" + fn + " AS ?v) WHERE {\n")
	} else {
		b.WriteString("SELECT * WHERE {\n")
	}
	fmt.Fprintf(&b, "  ?a %s ?b .\n", pred())
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "  FILTER(?b > %d)\n", rng.Intn(100))
	}
	switch shape {
	case 0, 2: // OPTIONAL (possibly under aggregation)
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "  OPTIONAL { ?b %s ?c . }\n", pred())
		} else {
			fmt.Fprintf(&b, "  OPTIONAL { ?a %s ?c . ?c %s ?d . }\n", pred(), pred())
		}
	case 1: // UNION joined with the base pattern
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "  { ?a %s ?c . } UNION { ?a %s ?d . }\n", pred(), pred())
		} else {
			fmt.Fprintf(&b, "  { ?b %s ?c . } UNION { ?c %s ?b . }\n", pred(), pred())
		}
	case 3: // OPTIONAL and UNION stacked
		fmt.Fprintf(&b, "  { ?a %s ?c . } UNION { ?a %s ?c . }\n", pred(), pred())
		fmt.Fprintf(&b, "  OPTIONAL { ?c %s ?d . }\n", pred())
	}
	b.WriteString("}")
	if agg {
		b.WriteString(" GROUP BY ?a")
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, " HAVING(?n >= %d)", 1+rng.Intn(3))
		}
		b.WriteString(" ORDER BY ?a")
	} else if rng.Intn(2) == 0 {
		b.WriteString(" ORDER BY ?a ?b")
	}
	if rng.Intn(4) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", 1+rng.Intn(20))
	}
	q, err := sparql.Parse(b.String())
	if err != nil {
		return nil, fmt.Errorf("generated algebra query does not parse: %w\n%s", err, b.String())
	}
	// Round-trip through the renderer as well.
	parsed, err := sparql.Parse(q.String())
	if err != nil {
		return nil, fmt.Errorf("generated algebra query does not re-parse: %w\n%s", err, q.String())
	}
	return parsed, nil
}
