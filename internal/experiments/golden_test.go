package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/exec"
	"repro/internal/snb"
	"repro/internal/sparql"
	"repro/internal/store"
)

// The golden suite: every BSBM and SNB template, with curated parameter
// bindings drawn from the paper's own pipeline (domain extraction →
// per-binding analysis → clustering), checked against testdata/golden.json.
// The fixture was written while the streaming, materializing and columnar
// engines still existed, and all three agreed on every entry (the
// materializing one on the BGP templates it supported). Per template ×
// binding it freezes the plan signature, the output variables, the row
// count, a hash of the decoded rows in order, and Cout, Work and Scanned.
// Every suite checks its runs against the fixture bit for bit and against
// the naive oracle (difftest.CheckOracle) as a row multiset.

type goldenTemplate struct {
	name string
	tmpl *sparql.Query
	snb  bool // template runs against the SNB store (else BSBM)
}

func goldenTemplates() []goldenTemplate {
	return []goldenTemplate{
		{"bsbm-q1", bsbm.Q1(), false},
		{"bsbm-q2", bsbm.Q2(), false},
		{"bsbm-q3", bsbm.Q3(), false},
		{"bsbm-q4", bsbm.Q4(), false},
		{"snb-q1", snb.Q1(), true},
		{"snb-q2", snb.Q2(), true},
		{"snb-q3", snb.Q3(), true},
	}
}

// algebraTemplates are the compositional-algebra workload templates
// (OPTIONAL/UNION/aggregates).
func algebraTemplates() []goldenTemplate {
	return []goldenTemplate{
		{"bsbm-q5-optional", bsbm.Q5(), false},
		{"bsbm-q6-union", bsbm.Q6(), false},
		{"snb-q4-grouped", snb.Q4(), true},
	}
}

// curatedBindings draws at least min bindings via the curation pipeline:
// every parameter class contributes members, topped up with uniform draws.
func curatedBindings(t *testing.T, tmpl *sparql.Query, st *store.Store, min int) []sparql.Binding {
	t.Helper()
	dom, err := core.ExtractDomain(tmpl, st)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(tmpl, st, dom, core.AnalyzeOptions{MaxBindings: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cl := core.Cluster(a, core.ClusterOptions{})
	var out []sparql.Binding
	for _, cq := range core.Curate("q", cl, 11) {
		out = append(out, cq.Sampler.Sample(2)...)
	}
	if len(out) < min {
		out = append(out, core.NewUniformSampler(dom, 13).Sample(min-len(out))...)
	}
	return out
}

func equalResults(a, b *exec.Result) error {
	if !reflect.DeepEqual(a.Vars, b.Vars) {
		return fmt.Errorf("vars %v vs %v", a.Vars, b.Vars)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			return fmt.Errorf("row %d: %v vs %v", i, a.Rows[i], b.Rows[i])
		}
	}
	if a.Cout != b.Cout || a.Work != b.Work || a.Scanned != b.Scanned {
		return fmt.Errorf("accounting (cout=%v work=%v scanned=%d) vs (cout=%v work=%v scanned=%d)",
			a.Cout, a.Work, a.Scanned, b.Cout, b.Work, b.Scanned)
	}
	return nil
}

// goldenEntry is one frozen execution of testdata/golden.json.
type goldenEntry struct {
	Template  string            `json:"template"`
	Binding   int               `json:"binding"`
	Params    map[string]string `json:"params"`
	Join      string            `json:"join"` // always "hash", the one interior-join algorithm
	Signature string            `json:"signature"`
	Vars      []sparql.Var      `json:"vars"`
	Rows      int               `json:"rows"`
	RowsHash  string            `json:"rows_hash"`
	Cout      float64           `json:"cout"`
	Work      float64           `json:"work"`
	Scanned   int               `json:"scanned"`
}

var (
	fixtureOnce sync.Once
	fixture     map[string]goldenEntry
	fixtureErr  error
)

// goldenFixture loads testdata/golden.json keyed by template/binding/join.
func goldenFixture(t *testing.T) map[string]goldenEntry {
	t.Helper()
	fixtureOnce.Do(func() {
		data, err := os.ReadFile("testdata/golden.json")
		if err != nil {
			fixtureErr = err
			return
		}
		var entries []goldenEntry
		if fixtureErr = json.Unmarshal(data, &entries); fixtureErr != nil {
			return
		}
		fixture = map[string]goldenEntry{}
		for _, e := range entries {
			fixture[fmt.Sprintf("%s/%d/%s", e.Template, e.Binding, e.Join)] = e
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

// goldenCase is one template × curated binding, bound and ready to run.
type goldenCase struct {
	tmpl    string
	binding int
	params  map[string]string
	bound   *sparql.Query
	st      *store.Store // the heap store the template runs against
}

func (gc goldenCase) String() string { return fmt.Sprintf("%s binding %d", gc.tmpl, gc.binding) }

func goldenCases(t *testing.T, templates []goldenTemplate) []goldenCase {
	t.Helper()
	env := sharedEnv(t)
	var out []goldenCase
	for _, g := range templates {
		st := env.BSBM
		if g.snb {
			st = env.SNB
		}
		bindings := curatedBindings(t, g.tmpl, st, 3)
		if len(bindings) < 3 {
			t.Fatalf("%s: only %d curated bindings", g.name, len(bindings))
		}
		for bi, b := range bindings {
			bound, err := g.tmpl.Bind(b)
			if err != nil {
				t.Fatalf("%s binding %d: %v", g.name, bi, err)
			}
			params := map[string]string{}
			for p, term := range b {
				params[string(p)] = term.String()
			}
			out = append(out, goldenCase{tmpl: g.name, binding: bi, params: params, bound: bound, st: st})
		}
	}
	return out
}

// checkGolden runs gc over st with opts and reports an error unless the run
// reproduces the case's fixture entry bit for bit. It returns the result
// for further checks.
func checkGolden(t *testing.T, gc goldenCase, st store.Source, opts exec.Options) (*exec.Result, error) {
	t.Helper()
	res, p, err := exec.Query(gc.bound, st, opts)
	if err != nil {
		t.Fatalf("%s: %v", gc, err)
	}
	var rows strings.Builder
	for _, row := range res.Rows {
		for j, id := range row {
			if j > 0 {
				rows.WriteByte('\t')
			}
			if term, ok := st.Dict().TryDecode(id); ok {
				rows.WriteString(term.String())
			} else {
				rows.WriteString("UNDEF")
			}
		}
		rows.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(rows.String()))
	got := goldenEntry{Template: gc.tmpl, Binding: gc.binding, Params: gc.params, Join: "hash",
		Signature: p.Signature, Vars: res.Vars, Rows: len(res.Rows), RowsHash: hex.EncodeToString(sum[:16]),
		Cout: res.Cout, Work: res.Work, Scanned: res.Scanned}
	want, ok := goldenFixture(t)[fmt.Sprintf("%s/%d/%s", got.Template, got.Binding, got.Join)]
	if !ok || !reflect.DeepEqual(got, want) {
		return res, fmt.Errorf("%s %+v:\n got %+v\nwant %+v", gc, opts, got, want)
	}
	return res, nil
}

// checkOracle reports an error unless res has the oracle's rows for gc over st.
func checkOracle(gc goldenCase, st store.Source, res *exec.Result) error {
	if err := difftest.CheckOracle(gc.bound, st, res); err != nil {
		return fmt.Errorf("%s: %w", gc, err)
	}
	return nil
}

// TestGoldenColumnarMatchesStreaming: serially, every BGP template and
// curated binding reproduces the frozen streaming (and materializing)
// result, and matches the oracle.
func TestGoldenColumnarMatchesStreaming(t *testing.T) {
	for _, gc := range goldenCases(t, goldenTemplates()) {
		res, err := checkGolden(t, gc, gc.st, exec.Options{})
		if err == nil {
			err = checkOracle(gc, gc.st, res)
		}
		if err != nil {
			t.Error(err)
		}
		if res.Scanned > 0 && res.Kernels.Batches == 0 {
			t.Errorf("%s: run produced no batches", gc)
		}
	}
}

// TestGoldenStreamingEqualsMaterializing: the streaming and materializing
// engines are gone, and their agreement is frozen in the fixture. What
// remains of the distinction is how LIMIT meets the pipeline: under
// EarlyStop it cuts the stream short, otherwise the input is drained. For
// every BGP template and curated binding, the draining run reproduces the
// frozen entry bit for bit, and the early-stopping run returns the same
// variables and rows in order while touching no more tuples.
func TestGoldenStreamingEqualsMaterializing(t *testing.T) {
	for _, gc := range goldenCases(t, goldenTemplates()) {
		drained, err := checkGolden(t, gc, gc.st, exec.Options{})
		if err != nil {
			t.Error(err)
			continue
		}
		early, _, err := exec.Query(gc.bound, gc.st, exec.Options{EarlyStop: true})
		if err != nil {
			t.Fatalf("%s early stop: %v", gc, err)
		}
		if !reflect.DeepEqual(early.Vars, drained.Vars) || !reflect.DeepEqual(early.Rows, drained.Rows) {
			t.Errorf("%s: early-stopping run changed the result", gc)
		}
		if early.Cout > drained.Cout || early.Work > drained.Work || early.Scanned > drained.Scanned {
			t.Errorf("%s: early stop grew the accounting: (cout=%v work=%v scanned=%d) > (cout=%v work=%v scanned=%d)",
				gc, early.Cout, early.Work, early.Scanned, drained.Cout, drained.Work, drained.Scanned)
		}
	}
}

// atProcs runs f with runtime.GOMAXPROCS set to procs, which sizes the
// analysis worker pool, and restores the previous setting.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestGoldenParallelCuration: the curation pipeline returns byte-identical
// parameter classes whether the per-binding analysis runs on one worker or
// fans out across four — on both benchmark stores.
func TestGoldenParallelCuration(t *testing.T) {
	env := sharedEnv(t)
	cases := []struct {
		name string
		tmpl *sparql.Query
		st   *store.Store
	}{
		{"bsbm-q4", bsbm.Q4(), env.BSBM},
		{"snb-q3", snb.Q3(), env.SNB},
	}
	for _, c := range cases {
		dom, err := core.ExtractDomain(c.tmpl, c.st)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.AnalyzeOptions{MaxBindings: 120, Seed: 3}
		var serial, parallel *core.Analysis
		atProcs(1, func() { serial, err = core.Analyze(c.tmpl, c.st, dom, opts) })
		if err != nil {
			t.Fatal(err)
		}
		atProcs(4, func() { parallel, err = core.Analyze(c.tmpl, c.st, dom, opts) })
		if err != nil {
			t.Fatal(err)
		}
		sc := core.Cluster(serial, core.ClusterOptions{})
		pc := core.Cluster(parallel, core.ClusterOptions{})
		if len(sc.Classes) != len(pc.Classes) {
			t.Fatalf("%s: class count differs: %d vs %d", c.name, len(sc.Classes), len(pc.Classes))
		}
		for i := range sc.Classes {
			a, b := sc.Classes[i], pc.Classes[i]
			if a.Signature != b.Signature || a.Band != b.Band ||
				a.CostLo != b.CostLo || a.CostHi != b.CostHi || len(a.Points) != len(b.Points) {
				t.Fatalf("%s: class %d differs between one and four workers", c.name, i)
			}
			for j := range a.Points {
				if a.Points[j].Signature != b.Points[j].Signature || a.Points[j].Cost != b.Points[j].Cost {
					t.Fatalf("%s: class %d point %d differs", c.name, i, j)
				}
			}
		}
	}
}

// TestGoldenAlgebraEngines: every algebra template and curated binding
// reproduces the frozen streaming/columnar result and matches the oracle.
func TestGoldenAlgebraEngines(t *testing.T) {
	for _, gc := range goldenCases(t, algebraTemplates()) {
		res, err := checkGolden(t, gc, gc.st, exec.Options{})
		if err == nil {
			err = checkOracle(gc, gc.st, res)
		}
		if err != nil {
			t.Error(err)
		}
	}
}

// checkInvariance is the backing invariance check: over st (a mapped view
// of gc's store), every template and curated binding reproduces the
// fixture and matches the oracle.
func checkInvariance(t *testing.T, gc goldenCase, st store.Source, label string) {
	t.Helper()
	res, err := checkGolden(t, gc, st, exec.Options{})
	if err == nil {
		err = checkOracle(gc, st, res)
	}
	if err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// TestGoldenShardInvariance: the golden BSBM and SNB stores, written as
// 4-shard directories and opened again (mapped and heap-loaded), are the
// stores they were written from. Their v4 images are byte-identical,
// which covers all six indexes, the predicate statistics, the class
// index and every dictionary ID, so every golden query over them is the
// frozen one.
func TestGoldenShardInvariance(t *testing.T) {
	env := sharedEnv(t)
	for name, st := range map[string]*store.Store{"bsbm": env.BSBM, "snb": env.SNB} {
		dir := filepath.Join(t.TempDir(), name)
		if err := store.WriteSharded(dir, store.NewSharded(st, 4)); err != nil {
			t.Fatal(err)
		}
		want := v4Bytes(t, st)
		for _, heap := range []bool{false, true} {
			got, err := store.LoadSharded(dir, heap)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v4Bytes(t, got), want) {
				t.Errorf("%s heap=%v: the store opened from its shard directory differs from the original", name, heap)
			}
			if m := got.Mapping(); m != nil {
				m.Release()
			}
		}
	}
}

// v4Bytes returns st's v4 snapshot image.
func v4Bytes(t *testing.T, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mappedCopy round-trips a store through a v4 snapshot and reopens it from
// the in-memory image with zero deserialization — the experiment-scale
// equivalent of serving from an OS file mapping. The v4 writer emits terms
// in dictionary ID order, so the mapped copy assigns identical IDs and
// exact identical statistics, making results comparable ID-for-ID.
func mappedCopy(t *testing.T, st *store.Store) *store.Store {
	t.Helper()
	m, err := store.OpenMappedBytes(v4Bytes(t, st))
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend() != "mapped" {
		t.Fatalf("backend = %q, want mapped", m.Backend())
	}
	return m
}

// TestGoldenMappedBase: over the mmap-backed copy of each store, every
// template and curated binding reproduces the frozen heap result.
func TestGoldenMappedBase(t *testing.T) {
	env := sharedEnv(t)
	mapped := map[*store.Store]*store.Store{env.BSBM: mappedCopy(t, env.BSBM), env.SNB: mappedCopy(t, env.SNB)}
	for _, gc := range goldenCases(t, append(goldenTemplates(), algebraTemplates()...)) {
		checkInvariance(t, gc, mapped[gc.st], "mapped")
	}
}
