package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

func TestPickPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true}, {1000, 99, true}, {50000, 99, true},
	} {
		got, ok := pickPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("pickPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// One request: http(100) → service(60) → {bind(5), exec(40)}, plus
	// decode(20) and encode(30) under http — 10 more than http lasted.
	spans := []span{
		{Name: "http", Start: 0, End: 100, Parent: -1},
		{Name: "service", Start: 100, End: 160, Parent: 0},
		{Name: "sparql.bind", Start: 160, End: 165, Parent: 1},
		{Name: "exec.run", Start: 165, End: 205, Parent: 1},
		{Name: "dict.decode", Start: 205, End: 225, Parent: 0},
		{Name: "service.encode", Start: 225, End: 255, Parent: 0},
	}
	want := []int64{0, 15, 5, 40, 20, 30} // http floored at 0, service 60-45
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	res := summarize(spans, 1)
	if res.reads != 1 || res.layerUs["service.self_us"] != 0.015 || res.layerUs["sparql.parse_us"] != 0 {
		t.Errorf("summarize: reads %d, layers %v", res.reads, res.layerUs)
	}
	if got, want := res.coverage, 45.0/60; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if got, want := res.frontShare, 5.0/100; got != want {
		t.Errorf("frontShare = %v, want %v", got, want)
	}
}

func TestParseResponse(t *testing.T) {
	rows := [][]string{
		{"<http://bsbm.example.org/Offer1_2>", `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{"UNDEF", "tab\there \"quoted\" back\\slash"},
		{"snow☃man", "clef\U0001D11E"},
		{"", "line\nbreak & <html>"},
	}
	type body struct {
		Vars     []string   `json:"vars"`
		Rows     [][]string `json:"rows"`
		RowCount int        `json:"row_count"`
		Cout     float64    `json:"cout"`
		Work     float64    `json:"work"`
		Scanned  int        `json:"scanned"`
		CacheHit bool       `json:"cache_hit"`
	}
	in := body{Vars: []string{"?a", "?b"}, Rows: rows, RowCount: 4, Cout: 12, Work: 34.5, Scanned: 56, CacheHit: true}
	want := readResponse{Rows: 4, RowHash: rowsHash(rows), RowCount: 4, Cout: 12, Work: 34.5, Scanned: 56, CacheHit: true}

	compact, err := json.Marshal(in) // HTML-escaped, like the server's encoder
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer // not HTML-escaped: another legal encoding of the same rows
	enc := json.NewEncoder(&plain)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(in); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(in, "", " ") // "rows": [ — only the slow path reads it
	if err != nil {
		t.Fatal(err)
	}
	surrogates := bytes.Replace(compact, []byte("clef\U0001D11E"), []byte(`clef\ud834\udd1e`), 1)
	var scratch []byte
	for name, b := range map[string][]byte{"compact": compact, "plain": plain.Bytes(), "indented": indented, "surrogates": surrogates} {
		got, err := parseResponse(b, &scratch)
		if err != nil || got != want {
			t.Errorf("%s: parseResponse = %+v, %v; want %+v", name, got, err, want)
		}
		slow, err := parseResponseSlow(b)
		if err != nil || slow != want {
			t.Errorf("%s: parseResponseSlow = %+v, %v; want %+v", name, slow, err, want)
		}
	}

	reversed := in
	reversed.Rows = [][]string{rows[3], rows[2], rows[1], rows[0]}
	b, _ := json.Marshal(reversed)
	if got, _ := parseResponse(b, &scratch); got.RowHash != want.RowHash {
		t.Errorf("row hash depends on row order")
	}
	shifted := in
	shifted.Rows = [][]string{{"a", "bc"}}
	b1, _ := json.Marshal(shifted)
	shifted.Rows = [][]string{{"ab", "c"}}
	b2, _ := json.Marshal(shifted)
	g1, _ := parseResponse(b1, &scratch)
	g2, _ := parseResponse(b2, &scratch)
	if g1.RowHash == g2.RowHash {
		t.Errorf("row hash ignores cell boundaries")
	}
	empty := in
	empty.Rows, empty.RowCount = [][]string{}, 0
	b, _ = json.Marshal(empty)
	if got, err := parseResponse(b, &scratch); err != nil || got.Rows != 0 || got.RowHash != 0 {
		t.Errorf("empty result: %+v, %v", got, err)
	}
	if _, err := parseResponse([]byte(`{"rows":[["unterminated`), &scratch); err == nil {
		t.Errorf("truncated body parsed without error")
	}
}

func TestUpdateKind(t *testing.T) {
	sc := scale{deleteLag: 4}
	live := map[int]bool{}
	for k := 0; k < 40; k++ {
		insert, batch := updateKind(sc, k)
		switch {
		case insert && live[batch]:
			t.Fatalf("update %d inserts batch %d twice", k, batch)
		case !insert && !live[batch]:
			t.Fatalf("update %d deletes batch %d, which is not live", k, batch)
		}
		live[batch] = insert
		if !insert {
			delete(live, batch)
		}
		if k >= sc.deleteLag && (len(live) < sc.deleteLag-1 || len(live) > sc.deleteLag) {
			t.Fatalf("after update %d %d batches are live, want about %d", k, len(live), sc.deleteLag)
		}
	}
}

// TestStreamsRepeat is the determinism contract: the same seed builds
// byte-identical streams, and the deterministic accounting behind them
// repeats exactly.
func TestStreamsRepeat(t *testing.T) {
	sc, err := scaleByName("test")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		build := func(seed int64) (*fixture, *stream) {
			fx, err := newFixture(sc, w.sharded, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			st, err := buildStream(w, fx, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			return fx, st
		}
		sums := func(fx *fixture, st *stream) cycleSums {
			answers, err := evaluateAll(fx.heap, st.queries, service.DefaultOptions().Exec)
			if err != nil {
				t.Fatal(err)
			}
			return (&report{st: st, answers: answers}).cycle()
		}
		fx1, st1 := build(1)
		fx2, st2 := build(1)
		if st1.sha256 != st2.sha256 || !reflect.DeepEqual(st1.clients, st2.clients) {
			t.Errorf("%s: two builds of seed 1 differ (%s vs %s)", w.name, st1.sha256, st2.sha256)
		}
		if s1, s2 := sums(fx1, st1), sums(fx2, st2); s1 != s2 {
			t.Errorf("%s: accounting does not repeat: %+v vs %+v", w.name, s1, s2)
		}
		if _, st3 := build(2); st3.sha256 == st1.sha256 {
			t.Errorf("%s: seeds 1 and 2 build the same stream", w.name)
		}
		for c, seq := range st1.clients {
			if len(seq) == 0 {
				t.Errorf("%s: client %d has no requests", w.name, c)
			}
		}
	}
}

// TestDeleteLagOutrunsCompaction checks the sizing the update workload
// depends on: live batches must outgrow served's adaptive compaction
// threshold (an eighth of the base), or deletes cancel inside the overlay
// and no compaction ever triggers.
func TestDeleteLagOutrunsCompaction(t *testing.T) {
	for _, name := range []string{"default", "test"} {
		sc, err := scaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fx, err := newFixture(sc, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if live, threshold := sc.deleteLag*3*sc.updateOffers, max(1024, fx.heap.Len()/8); live <= threshold {
			t.Errorf("scale %s: %d live inserted triples never reach the compaction threshold %d", name, live, threshold)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness in step: same
// workloads, same metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var decl struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []entry
	for _, w := range workloads {
		names = append(names, entry{Name: w.name})
	}
	if !reflect.DeepEqual(decl.Workloads, names) {
		t.Errorf("workloads: BENCHMARK.json has %v, the harness %v", decl.Workloads, names)
	}
	r := &report{
		st: &stream{}, fx: &fixture{}, phases: map[string][]float64{},
		res: &runResult{elapsed: 1, attempted: 1, readMs: []float64{1}},
	}
	entries := func(ms []metric) (out []entry) {
		for _, m := range ms {
			out = append(out, entry{m.name, m.unit})
		}
		return out
	}
	if got := entries(r.endToEnd()); !reflect.DeepEqual(decl.EndToEnd, got) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the harness %v", decl.EndToEnd, got)
	}
	if got := entries(r.perLayer()); !reflect.DeepEqual(decl.PerLayer, got) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the harness %v", decl.PerLayer, got)
	}
}

// TestSmoke runs all four workloads end to end at test scale — real
// served subprocess, HTTP closed loop, every response checked, traced
// run — and checks each prints a correct result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/served")
	}
	start := time.Now()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-scale", "test", "-seconds", "1", "-trace", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	results := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		results++
		if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
			t.Errorf("result %d: correct=%v attempted=%d failed=%d", results, res.Correct, res.Attempted, res.Failed)
		}
		if cov := res.Metrics["trace.coverage"].Value; cov < 0.5 {
			t.Errorf("result %d: trace.coverage %v", results, cov)
		}
	}
	if results != len(workloads) {
		t.Errorf("%d result lines, want %d\n%s", results, len(workloads), stdout.String())
	}
	if !strings.Contains(stdout.String(), "expected.json: rows and accounting match") {
		t.Errorf("seed-1 sums were not compared with expected.json:\n%s", stdout.String())
	}
	t.Logf("all four workloads in %.1fs", time.Since(start).Seconds())
}
