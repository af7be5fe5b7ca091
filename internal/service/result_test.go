package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"unicode/utf8"

	"repro/internal/bsbm"
	"repro/internal/dict"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// resultPayload, executeResponse and referencePayload are the result
// rendering this package shipped before the hand-written writer in
// result.go — a struct of decoded rows handed to encoding/json. They are
// kept here as the reference the writer is compared against, and as the
// shape the HTTP tests decode responses into.
type resultPayload struct {
	Vars           []string   `json:"vars"`
	Rows           [][]string `json:"rows"`
	RowCount       int        `json:"row_count"`
	Truncated      bool       `json:"truncated,omitempty"`
	Cout           float64    `json:"cout"`
	Work           float64    `json:"work"`
	Scanned        int        `json:"scanned"`
	DurationUs     int64      `json:"duration_us"`
	PlanSignature  string     `json:"plan_signature"`
	CacheHit       bool       `json:"cache_hit"`
	Generation     uint64     `json:"generation"`
	ExplainAnalyze string     `json:"explain_analyze,omitempty"`
	Spans          *obs.Span  `json:"spans,omitempty"`
}

type executeResponse struct {
	Results []resultPayload `json:"results"`
}

func referencePayload(out *Outcome, maxRows int) resultPayload {
	res := out.Result
	vars := make([]string, len(res.Vars))
	for i, v := range res.Vars {
		vars[i] = "?" + string(v)
	}
	rows := out.DecodedRows()
	truncated := maxRows > 0 && len(rows) > maxRows
	if truncated {
		rows = rows[:maxRows]
	}
	return resultPayload{
		Vars: vars, Rows: rows, RowCount: len(res.Rows), Truncated: truncated,
		Cout: res.Cout, Work: res.Work, Scanned: res.Scanned,
		DurationUs: res.Duration.Microseconds(), PlanSignature: out.Plan.Signature,
		CacheHit: out.CacheHit, Generation: out.Generation,
		ExplainAnalyze: out.Analyze, Spans: out.Trace,
	}
}

// resultStore holds <s_i> <p> objs[i] for every object, and one <s_0> <q>
// triple so that the OPTIONAL of resultQuery leaves every other row with
// an unbound cell. The mapped variant is the same store opened over its v4
// image, so cells come out of the mapped string heap.
func resultStore(t testing.TB, objs []rdf.Term, mapped bool) (*store.Store, error) {
	t.Helper()
	b := store.NewBuilder()
	p, q := rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/q")
	for i, o := range objs {
		s := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			return nil, err
		}
	}
	if err := b.Add(rdf.NewTriple(rdf.NewIRI("http://x/s0"), q, rdf.NewBlank("b0"))); err != nil {
		return nil, err
	}
	st := b.Build()
	if !mapped {
		return st, nil
	}
	var img bytes.Buffer
	if err := st.WriteSnapshot(&img); err != nil {
		t.Fatal(err)
	}
	return store.OpenMappedBytes(img.Bytes())
}

const resultQuery = `SELECT ?s ?o ?z WHERE { ?s <http://x/p> ?o . OPTIONAL { ?s <http://x/q> ?z . } }`

// checkResultJSON renders the outcomes of resultQuery (two of them for the
// batch form) with the writer and with the reference, and requires valid
// UTF-8 JSON that decodes to exactly what the reference's decodes to.
func checkResultJSON(t *testing.T, st *store.Store, maxRows int, batch, analyze bool) []byte {
	t.Helper()
	svc := New(st, "test", Options{})
	var outs []*Outcome
	var refs []resultPayload
	for i := 0; i < 1 || (batch && i < 2); i++ {
		out, err := svc.QueryWith(context.Background(), resultQuery, nil, RunOptions{Analyze: analyze})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
		refs = append(refs, referencePayload(out, maxRows))
	}
	var ref any = refs[0]
	if batch {
		ref = executeResponse{Results: refs}
	}
	wantJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeResults(rec, outs, maxRows, batch)
	got := rec.Body.Bytes()
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if !utf8.Valid(got) || !json.Valid(got) {
		t.Fatalf("writer produced invalid JSON: %q", got)
	}
	var gotV, wantV any
	if err := json.Unmarshal(got, &gotV); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantJSON, &wantV); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotV, wantV) {
		t.Fatalf("writer and reference disagree\n got: %s\nwant: %s", got, wantJSON)
	}
	return got
}

// awkwardTerms covers every escaping rule of N-Triples and of JSON, and the
// bytes neither escapes any more.
var awkwardTerms = []rdf.Term{
	rdf.NewIRI("http://x/plain"),
	rdf.NewIRI("http://x/a b<c>d\"e{f}|g^h`i\\j"),
	rdf.NewLiteral(`quote " backslash \ both \"`),
	rdf.NewLiteral("ctl \x00\x01\x08\x0c\x1f\x7f nl \n cr \r tab \t"),
	rdf.NewLiteral("<b>&amp;</b>   "),
	rdf.NewLiteral("non-BMP 😀 𝔘 and BMP é ü 漢"),
	rdf.NewLiteral("bad utf8 \xff\xc0\xaf \xe2\x82 end"),
	rdf.NewLiteral(""),
	rdf.NewLangLiteral("chat \"noir\"", "fr-CA"),
	rdf.NewTypedLiteral("42", rdf.XSDInteger),
	rdf.NewTypedLiteral("x", "http://x/dt<\">"),
	rdf.NewTypedLiteral("plain after all", rdf.XSDString),
	rdf.NewBlank("b1"),
	rdf.NewBlank("odd \"label\"\n"),
}

func TestResultJSONMatchesReference(t *testing.T) {
	for _, mapped := range []bool{false, true} {
		st, err := resultStore(t, awkwardTerms, mapped)
		if err != nil {
			t.Fatal(err)
		}
		empty, err := resultStore(t, nil, mapped)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name           string
			st             *store.Store
			maxRows        int
			batch, analyze bool
		}{
			{"all rows", st, 0, false, false},
			{"max_rows truncates", st, 3, false, false},
			{"max_rows above the result", st, 1000, false, false},
			{"batch", st, 0, true, false},
			{"batch truncated", st, 1, true, false},
			{"explain=analyze", st, 2, false, true},
			{"empty result", empty, 0, false, false},
			{"empty batch", empty, 0, true, false},
		} {
			t.Run(fmt.Sprintf("%s/mapped=%v", tc.name, mapped), func(t *testing.T) {
				checkResultJSON(t, tc.st, tc.maxRows, tc.batch, tc.analyze)
			})
		}
	}
}

// TestResultJSONLeavesHTMLAlone pins the one visible change of the writer:
// <, > and & arrive as themselves, not as the six-byte \u00XX escapes of
// encoding/json's HTML-safe mode.
func TestResultJSONLeavesHTMLAlone(t *testing.T) {
	st, err := resultStore(t, []rdf.Term{rdf.NewLiteral("a&b")}, false)
	if err != nil {
		t.Fatal(err)
	}
	got := checkResultJSON(t, st, 0, false, false)
	if !bytes.Contains(got, []byte(`["<http://x/s0>","\"a&b\"","_:b0"]`)) {
		t.Fatalf("rows not rendered verbatim: %s", got)
	}
}

// TestRenderTableAwkwardTerms: for every term of awkwardTerms, on the heap
// store and on its mapped twin, the JSON bytes the dictionary renders from
// its render table are exactly Term.Append's.
func TestRenderTableAwkwardTerms(t *testing.T) {
	for _, mapped := range []bool{false, true} {
		st, err := resultStore(t, awkwardTerms, mapped)
		if err != nil {
			t.Fatal(err)
		}
		d := st.Dict()
		for id := dict.ID(1); int(id) <= d.Len(); id++ {
			got, ok := d.AppendTerm(nil, id, rdf.JSON)
			if want := d.Decode(id).Append(nil, rdf.JSON); !ok || !bytes.Equal(got, want) {
				t.Fatalf("mapped=%v: AppendTerm(%d) = %q, %v; want %q", mapped, id, got, ok, want)
			}
		}
		if d.RenderTableBytes() == 0 {
			t.Fatalf("mapped=%v: no render table after JSON renders", mapped)
		}
	}
}

func FuzzResultJSON(f *testing.F) {
	for i, tm := range awkwardTerms {
		f.Add(uint8(tm.Kind), tm.Value, tm.Lang, tm.Datatype, i%4, uint8(i))
	}
	f.Fuzz(func(t *testing.T, kind uint8, value, lang, datatype string, maxRows int, flags uint8) {
		obj := rdf.Term{Kind: rdf.Kind(kind % 3), Value: value, Lang: lang, Datatype: datatype}
		st, err := resultStore(t, []rdf.Term{obj, rdf.NewLiteral("second row")}, flags&1 != 0)
		if err != nil {
			t.Skip(err) // not a storable term
		}
		checkResultJSON(t, st, maxRows, flags&2 != 0, flags&4 != 0)
	})
}

// discardResponse is a ResponseWriter that keeps nothing, so that what
// AllocsPerRun counts is the writer's own.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header       { return d.h }
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) WriteHeader(int)             {}

// resultOutcome runs resultQuery over n generated rows.
func resultOutcome(t testing.TB, n int) *Outcome {
	t.Helper()
	objs := make([]rdf.Term, n)
	for i := range objs {
		objs[i] = rdf.NewLangLiteral(fmt.Sprintf("product %d \"deluxe\"", i), "en")
	}
	st, err := resultStore(t, objs, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := New(st, "test", Options{}).Query(context.Background(), resultQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Rows) != n {
		t.Fatalf("%d rows, want %d", len(out.Result.Rows), n)
	}
	return out
}

// TestWriteResultsAllocsFlat: rendering 5 000 rows allocates no more than
// rendering 10 — the buffer is pooled and flushed, nothing is per row.
func TestWriteResultsAllocsFlat(t *testing.T) {
	w := discardResponse{h: http.Header{}}
	allocs := func(n int) float64 {
		outs := []*Outcome{resultOutcome(t, n)}
		writeResults(w, outs, 0, false) // grow the pooled buffer
		return testing.AllocsPerRun(50, func() { writeResults(w, outs, 0, false) })
	}
	// A pooled buffer lost to a GC cycle (or shed by the race detector) is
	// regrown in a dozen appends; anything per row would show as thousands.
	small, large := allocs(10), allocs(5000)
	if large > small+16 {
		t.Fatalf("writeResults allocates %.0f times for 5000 rows, %.0f for 10", large, small)
	}
}

// failingResponse is a client that has hung up: every write fails.
type failingResponse struct {
	discardResponse
	writes int
}

func (f *failingResponse) Write([]byte) (int, error) {
	f.writes++
	return 0, errors.New("connection reset")
}

// TestWriteResultsStopsOnFailedWrite: once a flush fails the writer renders
// no further rows, and every outcome of the batch is still closed.
func TestWriteResultsStopsOnFailedWrite(t *testing.T) {
	outs := []*Outcome{resultOutcome(t, 5000), resultOutcome(t, 5000)}
	closed := 0
	for _, out := range outs {
		unpin := out.unpin
		out.unpin = func() { closed++; unpin() }
	}
	w := &failingResponse{discardResponse: discardResponse{h: http.Header{}}}
	writeResults(w, outs, 0, true)
	if w.writes != 1 {
		t.Fatalf("%d writes after the connection failed, want 1", w.writes)
	}
	if closed != len(outs) {
		t.Fatalf("%d of %d outcomes closed", closed, len(outs))
	}
}

// BenchmarkWriteResult times writeResults: rows=n renders n rows of
// quote-heavy language literals, bsbm-q4 a prepared Q4 (about 3 800 rows
// of IRIs) over a mapped copy of the benchmark fixture, as served.
func BenchmarkWriteResult(b *testing.B) {
	for _, n := range []int{10, 1000, 5000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			benchWriteResult(b, resultOutcome(b, n))
		})
	}
	b.Run("bsbm-q4", func(b *testing.B) {
		var img bytes.Buffer
		if err := benchFixture(b).WriteSnapshot(&img); err != nil {
			b.Fatal(err)
		}
		st, err := store.OpenMappedBytes(img.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		svc := New(st, "", DefaultOptions())
		p, err := svc.Prepare("q4", bsbm.QueryQ4Text)
		if err != nil {
			b.Fatal(err)
		}
		outs, err := svc.ExecuteBatch(context.Background(), p, []sparql.Binding{{"ProductType": bsbm.TypeIRI(21)}})
		if err != nil {
			b.Fatal(err)
		}
		benchWriteResult(b, outs[0])
	})
}

// benchWriteResult times rendering out, reporting its size and time per
// row.
func benchWriteResult(b *testing.B, out *Outcome) {
	w := discardResponse{h: http.Header{}}
	outs := []*Outcome{out}
	n := len(out.Result.Rows)
	size := countingResponse{discardResponse: w}
	writeResults(&size, outs, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeResults(w, outs, 0, false)
	}
	b.ReportMetric(float64(size.n)/float64(n), "bytes/row")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// BenchmarkExecutePrepared times a warm prepared ExecuteBatch of one
// binding on the benchmark fixture: a Q4 index-probe chain (about 3 800
// rows) and a Q2 that fills its LIMIT of 1 000 rows. B/op and allocs/op
// are the execution path's garbage per request.
func BenchmarkExecutePrepared(b *testing.B) {
	svc := New(benchFixture(b), "", DefaultOptions())
	for _, c := range []struct {
		name, text string
		binding    sparql.Binding
	}{
		{"q4", bsbm.QueryQ4Text, sparql.Binding{"ProductType": bsbm.TypeIRI(21)}},
		{"q2", bsbm.QueryQ2Text, sparql.Binding{"Product": bsbm.ProductIRI(0)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := svc.Prepare(c.name, c.text)
			if err != nil {
				b.Fatal(err)
			}
			run := preparedRun(b, svc, p, c.binding)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// countingResponse measures a response body's size.
type countingResponse struct {
	discardResponse
	n int
}

func (c *countingResponse) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}
