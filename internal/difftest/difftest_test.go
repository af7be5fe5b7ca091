package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// failureArtifact is the reproduction record written to DIFFTEST_OUT when
// a differential check fails, so CI can upload it.
type failureArtifact struct {
	Seed    int64    `json:"seed"`
	Query   string   `json:"query,omitempty"`
	Updates []string `json:"updates,omitempty"`
	Error   string   `json:"error"`
}

// reportFailure records the failing scenario for reproduction and fails
// the test with the seed front and center.
func reportFailure(t *testing.T, sc *Scenario, query string, err error) {
	t.Helper()
	if out := os.Getenv("DIFFTEST_OUT"); out != "" {
		art := failureArtifact{Seed: sc.Seed, Query: query, Error: err.Error()}
		for _, u := range sc.Updates {
			art.Updates = append(art.Updates, u.String())
		}
		if data, jerr := json.MarshalIndent(art, "", "  "); jerr == nil {
			_ = os.WriteFile(out, data, 0o644)
		}
	}
	t.Fatalf("seed %d (rerun with DIFFTEST_SEED=%d): %v", sc.Seed, sc.Seed, err)
}

// seedsUnderTest returns the scenario seeds: DIFFTEST_SEED pins a single
// scenario, otherwise a fixed deterministic batch runs.
func seedsUnderTest(t *testing.T) []int64 {
	if s := os.Getenv("DIFFTEST_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad DIFFTEST_SEED %q: %v", s, err)
		}
		return []int64{n}
	}
	var out []int64
	for s := int64(1); s <= 10; s++ {
		out = append(out, s)
	}
	return out
}

// TestDifferentialEngines is the harness entry point: for every scenario
// seed it checks the engine against the oracle over the pristine store and
// the delta-overlaid store, and checks
// the overlay against the rebuilt-from-scratch reference — rows and
// accounting byte-identical everywhere.
func TestDifferentialEngines(t *testing.T) {
	const queriesPerScenario = 30
	for _, seed := range seedsUnderTest(t) {
		sc, err := GenScenario(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkStoreEquivalence(t, sc)
		qrng := rand.New(rand.NewSource(sc.Seed * 7919))
		for qi := 0; qi < queriesPerScenario; qi++ {
			q, err := sc.GenQuery(qrng)
			if err != nil {
				reportFailure(t, sc, "", err)
			}
			text := q.String()
			if _, err := RunQuery(q, sc.Base, "pristine"); err != nil {
				reportFailure(t, sc, text, err)
			}
			ovl, err := RunQuery(q, sc.Overlay, "overlay")
			if err != nil {
				reportFailure(t, sc, text, err)
			}
			reb, err := RunQuery(q, sc.Rebuilt, "rebuilt")
			if err != nil {
				reportFailure(t, sc, text, err)
			}
			if ovl != reb {
				reportFailure(t, sc, text, fmt.Errorf(
					"overlay result diverges from rebuilt store\n--- overlay\n%s\n--- rebuilt\n%s", ovl, reb))
			}
		}
	}
}

// TestDifferentialStarBGP cross-checks star-shaped BGPs — four to six
// patterns around one hub variable — against the oracle, over the pristine
// store, the delta overlay and the rebuilt reference store.
func TestDifferentialStarBGP(t *testing.T) {
	const queriesPerScenario = 15
	for _, seed := range seedsUnderTest(t) {
		sc, err := GenScenario(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		qrng := rand.New(rand.NewSource(sc.Seed * 6133))
		for qi := 0; qi < queriesPerScenario; qi++ {
			q, err := sc.GenStarQuery(qrng)
			if err != nil {
				reportFailure(t, sc, "", err)
			}
			text := q.String()
			if _, err := RunQuery(q, sc.Base, "pristine"); err != nil {
				reportFailure(t, sc, text, err)
			}
			ovl, err := RunQuery(q, sc.Overlay, "overlay")
			if err != nil {
				reportFailure(t, sc, text, err)
			}
			reb, err := RunQuery(q, sc.Rebuilt, "rebuilt")
			if err != nil {
				reportFailure(t, sc, text, err)
			}
			if ovl != reb {
				reportFailure(t, sc, text, fmt.Errorf(
					"overlay result diverges from rebuilt store\n--- overlay\n%s\n--- rebuilt\n%s", ovl, reb))
			}
		}
	}
}

// checkStoreEquivalence asserts the overlay's whole statistics surface
// matches the rebuilt reference exactly — the property that makes the
// optimizer's plan choice (and therefore row order) identical over both.
func checkStoreEquivalence(t *testing.T, sc *Scenario) {
	t.Helper()
	ov, ref := sc.Overlay, sc.Rebuilt
	if ov.Len() != ref.Len() {
		reportFailure(t, sc, "", fmt.Errorf("Len: overlay %d != rebuilt %d", ov.Len(), ref.Len()))
	}
	ovPreds, refPreds := ov.Predicates(), ref.Predicates()
	if len(ovPreds) != len(refPreds) {
		reportFailure(t, sc, "", fmt.Errorf("Predicates: %d vs %d", len(ovPreds), len(refPreds)))
	}
	for i, p := range refPreds {
		if ovPreds[i] != p {
			reportFailure(t, sc, "", fmt.Errorf("Predicates[%d]: %d vs %d", i, ovPreds[i], p))
		}
		if ov.PredicateStats(p) != ref.PredicateStats(p) {
			reportFailure(t, sc, "", fmt.Errorf("PredicateStats(%d): %+v vs %+v",
				p, ov.PredicateStats(p), ref.PredicateStats(p)))
		}
	}
	// Spot-check counts for every pattern shape over a seeded sample.
	rng := rand.New(rand.NewSource(sc.Seed * 104729))
	all, _ := ref.Match(store.Pattern{})
	for i := 0; i < 30 && len(all) > 0; i++ {
		tr := all[rng.Intn(len(all))]
		for _, pat := range []store.Pattern{
			{S: tr.S}, {P: tr.P}, {O: tr.O},
			{S: tr.S, P: tr.P}, {S: tr.S, O: tr.O}, {P: tr.P, O: tr.O},
			{S: tr.S, P: tr.P, O: tr.O}, {},
		} {
			if ov.Count(pat) != ref.Count(pat) {
				reportFailure(t, sc, "", fmt.Errorf("Count(%v): %d vs %d", pat, ov.Count(pat), ref.Count(pat)))
			}
		}
	}
}

// TestDifferentialSnapshotRoundTrip runs a slice of the matrix over an
// overlay that has been through a snapshot write/read cycle: the writer
// folds the delta, and queries over the restored plain store must match
// the original overlay exactly.
func TestDifferentialSnapshotRoundTrip(t *testing.T) {
	sc, err := GenScenario(12345)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ov.snap"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Overlay.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Mapping().Release()
	if restored.Delta() != nil || restored.Len() != sc.Overlay.Len() {
		t.Fatalf("restored snapshot: delta %v, %d triples; want folded, %d",
			restored.Delta() != nil, restored.Len(), sc.Overlay.Len())
	}
	qrng := rand.New(rand.NewSource(999))
	for qi := 0; qi < 15; qi++ {
		q, err := sc.GenQuery(qrng)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunQuery(q, sc.Overlay, "overlay")
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunQuery(q, restored, "restored")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %s diverges after a snapshot round trip\n--- overlay\n%s\n--- restored\n%s",
				q.String(), want, got)
		}
	}
}

// TestDifferentialAlgebra cross-checks OPTIONAL/UNION/aggregate queries
// across the engine matrix and the oracle, over the pristine store, the
// delta overlay (whose history includes pattern-driven WHERE updates) and
// the rebuilt reference store.
func TestDifferentialAlgebra(t *testing.T) {
	const queriesPerScenario = 20
	for _, seed := range seedsUnderTest(t) {
		sc, err := GenScenario(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		qrng := rand.New(rand.NewSource(sc.Seed * 9973))
		for qi := 0; qi < queriesPerScenario; qi++ {
			q, err := sc.GenAlgebraQuery(qrng)
			if err != nil {
				reportFailure(t, sc, "", err)
			}
			text := q.String()
			if _, err := RunQuery(q, sc.Base, "pristine"); err != nil {
				reportFailure(t, sc, text, err)
			}
			ovl, err := RunQuery(q, sc.Overlay, "overlay")
			if err != nil {
				reportFailure(t, sc, text, err)
			}
			reb, err := RunQuery(q, sc.Rebuilt, "rebuilt")
			if err != nil {
				reportFailure(t, sc, text, err)
			}
			if ovl != reb {
				reportFailure(t, sc, text, fmt.Errorf(
					"overlay result diverges from rebuilt store\n--- overlay\n%s\n--- rebuilt\n%s", ovl, reb))
			}
		}
	}
}

// mappedWorld rebuilds a scenario's world over an mmap-style base: the base
// store is serialized as a v4 snapshot, reopened through OpenMappedBytes
// (zero-deserialization, bounds-checked accessors), and the scenario's
// update history is replayed on top of it, yielding a Delta overlay whose
// bottom layer is mapped memory. The v4 writer emits terms in dictionary ID
// order, so the mapped world assigns byte-identical IDs, statistics and
// therefore plans.
func mappedWorld(t *testing.T, sc *Scenario) (base, overlay *store.Store) {
	t.Helper()
	var buf bytes.Buffer
	if err := sc.Base.WriteSnapshot(&buf); err != nil {
		reportFailure(t, sc, "", fmt.Errorf("write v4: %w", err))
	}
	mapped, err := store.OpenMappedBytes(buf.Bytes())
	if err != nil {
		reportFailure(t, sc, "", fmt.Errorf("open mapped: %w", err))
	}
	if mapped.Backend() != "mapped" {
		reportFailure(t, sc, "", fmt.Errorf("base backend = %q, want mapped", mapped.Backend()))
	}
	d := mapped.NewDelta()
	for _, u := range sc.Updates {
		d, err = exec.ApplyUpdateDelta(d, u)
		if err != nil {
			reportFailure(t, sc, "", fmt.Errorf("replay update over mapped base: %w", err))
		}
	}
	return mapped, d.Overlay()
}

// TestDifferentialMappedBase is the mmap-backed cell of the matrix: runs
// over the pristine mapped store and over a Delta overlay whose base is
// mapped memory must be byte-identical — rows AND accounting — to the
// heap-backed reference world.
func TestDifferentialMappedBase(t *testing.T) {
	const queriesPerScenario = 15
	for _, seed := range seedsUnderTest(t) {
		sc, err := GenScenario(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mbase, movl := mappedWorld(t, sc)
		if mbase.Len() != sc.Base.Len() || movl.Len() != sc.Overlay.Len() {
			reportFailure(t, sc, "", fmt.Errorf("mapped world sizes %d/%d != heap %d/%d",
				mbase.Len(), movl.Len(), sc.Base.Len(), sc.Overlay.Len()))
		}
		qrng := rand.New(rand.NewSource(sc.Seed * 3571))
		for qi := 0; qi < queriesPerScenario; qi++ {
			q, err := sc.GenQuery(qrng)
			if err != nil {
				reportFailure(t, sc, "", err)
			}
			text := q.String()
			heapBase, err := RunQuery(q, sc.Base, "pristine-heap")
			if err != nil {
				reportFailure(t, sc, text, err)
			}
			mapBase, err := RunQuery(q, mbase, "pristine-mapped")
			if err != nil {
				reportFailure(t, sc, text, err)
			}
			if mapBase != heapBase {
				reportFailure(t, sc, text, fmt.Errorf(
					"mapped base diverges from heap base\n--- heap\n%s\n--- mapped\n%s", heapBase, mapBase))
			}
			heapOvl, err := RunQuery(q, sc.Overlay, "overlay-heap")
			if err != nil {
				reportFailure(t, sc, text, err)
			}
			mapOvl, err := RunQuery(q, movl, "overlay-mapped")
			if err != nil {
				reportFailure(t, sc, text, err)
			}
			if mapOvl != heapOvl {
				reportFailure(t, sc, text, fmt.Errorf(
					"mapped overlay diverges from heap overlay\n--- heap\n%s\n--- mapped\n%s", heapOvl, mapOvl))
			}
		}
	}
}

// TestOracleRejectsCorruptResults guards against a vacuous oracle: on real
// engine results (flat and algebra queries, no slice), corrupting one cell,
// dropping one row or duplicating one row must each fail CheckOracle.
func TestOracleRejectsCorruptResults(t *testing.T) {
	checked := 0
	for _, seed := range seedsUnderTest(t) {
		sc, err := GenScenario(seed)
		if err != nil {
			t.Fatal(err)
		}
		qrng := rand.New(rand.NewSource(seed * 31))
		for qi := 0; qi < 40; qi++ {
			gen := sc.GenQuery
			if qi%2 == 1 {
				gen = sc.GenAlgebraQuery
			}
			q, err := gen(qrng)
			if err != nil {
				t.Fatal(err)
			}
			if _, limited := q.LimitCount(); limited || q.Offset > 0 {
				continue
			}
			res, _, err := exec.Query(q, sc.Overlay, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 || len(res.Vars) == 0 {
				continue
			}
			if err := CheckOracle(q, sc.Overlay, res); err != nil {
				t.Fatalf("seed %d: clean result rejected: %v", seed, err)
			}
			rows := res.Rows
			cell := append([]dict.ID(nil), rows[0]...)
			cell[0]++ // another term, or an unbound cell made bound
			for name, corrupt := range map[string][][]dict.ID{
				"corrupt cell":  append([][]dict.ID{cell}, rows[1:]...),
				"dropped row":   rows[1:],
				"duplicate row": append(append([][]dict.ID(nil), rows...), rows[0]),
			} {
				res.Rows = corrupt
				if CheckOracle(q, sc.Overlay, res) == nil {
					t.Fatalf("seed %d: %s accepted by the oracle\n%s", seed, name, q)
				}
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d non-empty results checked", checked)
	}
}

// TestGreedyFallbackMatchesOracle runs two queries whose BGP leaves exceed
// plan.MaxDPPatterns, so their join order comes from the greedy fallback:
// a flat star and the same star under OPTIONAL. Both are checked against
// the oracle. A fifth of the subjects lack one predicate, so the flat
// star drops them and the OPTIONAL pads them with unbound values.
func TestGreedyFallbackMatchesOracle(t *testing.T) {
	const subjects, preds = 20, plan.MaxDPPatterns + 1
	iri := func(kind string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://d/%s%d", kind, i)) }
	b := store.NewBuilder()
	for s := 0; s < subjects; s++ {
		triples := []rdf.Triple{rdf.NewTriple(iri("s", s), rdf.NewIRI(rdf.RDFType), iri("C", 0))}
		for p := 0; p < preds; p++ {
			if s%5 != 0 || p != s%preds {
				triples = append(triples, rdf.NewTriple(iri("s", s), iri("p", p), iri("o", s*p%4)))
			}
		}
		for _, tr := range triples {
			if err := b.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := b.Build()
	var star strings.Builder
	for p := 0; p < preds; p++ {
		fmt.Fprintf(&star, " ?h <http://d/p%d> ?v%d .", p, p)
	}
	for _, src := range []string{
		"SELECT * WHERE {" + star.String() + " FILTER(?v1 != <http://d/o0>) }",
		"SELECT * WHERE { ?h a <http://d/C0> . OPTIONAL {" + star.String() + " } } ORDER BY ?h",
	} {
		q := sparql.MustParse(src)
		res, p, err := exec.Query(q, st, exec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if p.Method != "greedy" {
			t.Fatalf("%s: method %s, want greedy", src, p.Method)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", src)
		}
		if err := CheckOracle(q, st, res); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
}
