package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bsbm"
)

func writeTestData(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.nt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	content := `<http://x/a> <http://x/knows> <http://x/b> .
<http://x/b> <http://x/knows> <http://x/c> .
<http://x/a> <http://x/name> "alice" .
<http://x/b> <http://x/name> "bob" .
`
	if _, err := f.WriteString(content); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestQueryOverNTriples(t *testing.T) {
	data := writeTestData(t)
	var buf bytes.Buffer
	err := run(&buf, config{dataPath: data, queryStr: `SELECT ?n WHERE { ?p <http://x/name> ?n . } ORDER BY ?n`})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 rows") || !strings.Contains(out, `"alice"`) {
		t.Fatalf("output wrong:\n%s", out)
	}
	// alice sorts before bob
	if strings.Index(out, "alice") > strings.Index(out, "bob") {
		t.Fatal("ORDER BY not applied")
	}
}

func TestQueryWithBindAndExplain(t *testing.T) {
	data := writeTestData(t)
	var buf bytes.Buffer
	err := run(&buf, config{dataPath: data, queryStr: `SELECT ?x WHERE { %who <http://x/knows> ?x . }`,
		binds: []string{"who=<http://x/a>"}, explain: true})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "plan[") {
		t.Fatal("explain output missing")
	}
	if !strings.Contains(out, "<http://x/b>") {
		t.Fatalf("result missing:\n%s", out)
	}
}

func TestQueryOverSnapshot(t *testing.T) {
	st, _, err := bsbm.BuildStore(bsbm.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var buf bytes.Buffer
	err = run(&buf, config{dataPath: path, queryStr: `PREFIX b: <http://bsbm.example.org/>
SELECT ?p WHERE { ?p b:label ?l . } LIMIT 7`, maxRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "7 rows") || !strings.Contains(out, "more rows") {
		t.Fatalf("snapshot query output wrong:\n%s", out)
	}
}

func TestQueryFileAndModes(t *testing.T) {
	data := writeTestData(t)
	qf := filepath.Join(t.TempDir(), "q.rq")
	if err := os.WriteFile(qf, []byte(`SELECT * WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c . }`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, greedy := range []bool{false, true} {
		var buf bytes.Buffer
		if err := run(&buf, config{dataPath: data, queryFile: qf, greedy: greedy}); err != nil {
			t.Fatalf("greedy=%v: %v", greedy, err)
		}
		if !strings.Contains(buf.String(), "1 rows") {
			t.Fatalf("greedy=%v: wrong rows:\n%s", greedy, buf.String())
		}
	}
}

func TestErrors(t *testing.T) {
	data := writeTestData(t)
	var buf bytes.Buffer
	if err := run(&buf, config{queryStr: "q"}); err == nil {
		t.Error("missing data should fail")
	}
	if err := run(&buf, config{dataPath: data}); err == nil {
		t.Error("missing query should fail")
	}
	if err := run(&buf, config{dataPath: data, queryStr: "not a query"}); err == nil {
		t.Error("bad query should fail")
	}
	if err := run(&buf, config{dataPath: data, queryStr: `SELECT * WHERE { ?s ?p %x . }`}); err == nil {
		t.Error("unbound param should fail")
	}
	if err := run(&buf, config{dataPath: data, queryStr: `SELECT * WHERE { ?s ?p %x . }`, binds: []string{"bogus"}}); err == nil {
		t.Error("malformed bind should fail")
	}
	if err := run(&buf, config{dataPath: data, queryStr: `SELECT * WHERE { ?s ?p %x . }`, binds: []string{"x=<unterminated"}}); err == nil {
		t.Error("bad bind term should fail")
	}
	if err := run(&buf, config{dataPath: "/nonexistent.nt", queryStr: "q"}); err == nil {
		t.Error("missing file should fail")
	}
}

// TestEngineModesAgree: morsel parallelism never changes the printed rows.
func TestEngineModesAgree(t *testing.T) {
	data := writeTestData(t)
	src := `SELECT ?x WHERE { <http://x/a> <http://x/knows> ?x . ?x <http://x/knows> ?c . }`
	rows := func(cfg config) string {
		t.Helper()
		var buf bytes.Buffer
		cfg.dataPath, cfg.queryStr = data, src
		if err := run(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		// From the header on: the first lines carry wall-clock timing and
		// schedule counters, which legitimately differ per configuration.
		out := buf.String()
		return out[strings.Index(out, "?x"):]
	}
	if got, want := rows(config{parallelism: 4}), rows(config{}); got != want {
		t.Fatalf("-parallelism 4 changed the rows:\n%s\nvs\n%s", got, want)
	}
}

func TestExplainPrintsPhysicalPlan(t *testing.T) {
	data := writeTestData(t)
	var buf bytes.Buffer
	err := run(&buf, config{dataPath: data, explain: true,
		queryStr: `SELECT ?x WHERE { <http://x/a> <http://x/knows> ?x . ?x <http://x/knows> ?c . }`})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "physical:") || !strings.Contains(out, "IndexScan") {
		t.Fatalf("physical plan missing from explain output:\n%s", out)
	}
}
