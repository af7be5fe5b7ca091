package dict

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://x/a"),
		rdf.NewIRI("http://x/b"),
		rdf.NewLiteral("v"),
		rdf.NewLangLiteral("v", "en"),
		rdf.NewTypedLiteral("1", rdf.XSDInteger),
		rdf.NewBlank("b0"),
	}
	ids := make([]ID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Encode(tm)
		if ids[i] == None {
			t.Fatalf("Encode returned None for %v", tm)
		}
	}
	for i, tm := range terms {
		if got := d.Decode(ids[i]); got != tm {
			t.Errorf("Decode(%d) = %v, want %v", ids[i], got, tm)
		}
	}
	if d.Len() != len(terms) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(terms))
	}
}

func TestEncodeIdempotent(t *testing.T) {
	d := New()
	a := d.Encode(rdf.NewIRI("http://x/a"))
	b := d.Encode(rdf.NewIRI("http://x/a"))
	if a != b {
		t.Fatalf("same term got two IDs: %d, %d", a, b)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestDistinctTermsDistinctIDs(t *testing.T) {
	// Plain literal vs lang literal vs typed literal with same lexical form
	// must get distinct IDs.
	d := New()
	ids := map[ID]bool{
		d.Encode(rdf.NewLiteral("x")):                       true,
		d.Encode(rdf.NewLangLiteral("x", "en")):             true,
		d.Encode(rdf.NewTypedLiteral("x", rdf.XSDInteger)):  true,
		d.Encode(rdf.NewIRI("x")):                           true,
		d.Encode(rdf.NewBlank("x")):                         true,
		d.Encode(rdf.NewTypedLiteral("x", rdf.XSDDateTime)): true,
		d.Encode(rdf.NewLangLiteral("x", "fr")):             true,
	}
	if len(ids) != 7 {
		t.Fatalf("got %d distinct IDs, want 7", len(ids))
	}
}

func TestLookupMissing(t *testing.T) {
	d := New()
	if id, ok := d.Lookup(rdf.NewIRI("http://x/a")); ok || id != None {
		t.Fatalf("Lookup on empty dict = (%d, %v)", id, ok)
	}
	if _, ok := d.TryDecode(None); ok {
		t.Fatal("TryDecode(None) should fail")
	}
	if _, ok := d.TryDecode(42); ok {
		t.Fatal("TryDecode(out of range) should fail")
	}
}

func TestDecodeInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Decode(1)
}

func TestConcurrentEncode(t *testing.T) {
	d := New()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// All workers encode the same term set: IDs must agree.
				id := d.Encode(rdf.NewIRI(fmt.Sprintf("http://x/%d", i)))
				if got := d.Decode(id); got.Value != fmt.Sprintf("http://x/%d", i) {
					t.Errorf("decode mismatch for %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d.Len() != perWorker {
		t.Fatalf("Len = %d, want %d", d.Len(), perWorker)
	}
}

// Property: Encode∘Decode is the identity, and IDs are dense 1..n.
func TestEncodeDenseProperty(t *testing.T) {
	d := New()
	seen := make(map[rdf.Term]ID)
	f := func(s string) bool {
		tm := rdf.NewLiteral(s)
		id := d.Encode(tm)
		if prev, ok := seen[tm]; ok && prev != id {
			return false
		}
		seen[tm] = id
		return int(id) >= 1 && int(id) <= d.Len() && d.Decode(id) == tm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeIRIHelpers(t *testing.T) {
	d := New()
	id := d.EncodeIRI("http://x/a")
	got, ok := d.LookupIRI("http://x/a")
	if !ok || got != id {
		t.Fatalf("LookupIRI = (%d, %v), want (%d, true)", got, ok, id)
	}
}

// TestAppendTermMatchesTryDecode: the append-style decode renders exactly
// what TryDecode + Term.Append would, and reports the same ids invalid,
// leaving dst as it was.
func TestAppendTermMatchesTryDecode(t *testing.T) {
	d := New()
	for _, tm := range []rdf.Term{
		rdf.NewIRI("http://x/a<b>"),
		rdf.NewLangLiteral("say \"hi\"\n", "en"),
		rdf.NewTypedLiteral("7", rdf.XSDInteger),
		rdf.NewBlank("b0"),
	} {
		d.Encode(tm)
	}
	for _, syn := range []*rdf.Syntax{rdf.NTriples, rdf.JSON} {
		for id := ID(0); int(id) <= d.Len()+1; id++ {
			got, ok := d.AppendTerm([]byte("x"), id, syn)
			tm, wantOK := d.TryDecode(id)
			want := []byte("x")
			if wantOK {
				want = tm.Append(want, syn)
			}
			if ok != wantOK || string(got) != string(want) {
				t.Fatalf("AppendTerm(%d) = %q, %v; want %q, %v", id, got, ok, want, wantOK)
			}
		}
	}
}

// renderTerms are terms whose JSON rendering escapes in every part of the
// grammar: IRIs, literal values, language tags, datatypes, blank labels,
// control bytes and invalid UTF-8.
var renderTerms = []rdf.Term{
	rdf.NewIRI("http://x/a b<c>d\"e{f}|g^h`i\\j"),
	rdf.NewLiteral("ctl \x00\x1f\x7f nl \n quote \" backslash \\"),
	rdf.NewLiteral("bad utf8 \xff\xc0\xaf \xe2\x82 end, fine é 😀"),
	rdf.NewLiteral(""),
	rdf.NewLangLiteral("chat \"noir\"", "fr-CA"),
	rdf.NewTypedLiteral("x", "http://x/dt<\">"),
	rdf.NewTypedLiteral("plain after all", rdf.XSDString),
	rdf.NewBlank("odd \"label\"\n"),
}

// serialJSON is every id's JSON rendering through Term.Append.
func serialJSON(t *testing.T, d *Dict) []string {
	t.Helper()
	want := make([]string, d.Len()+1)
	for id := ID(1); int(id) <= d.Len(); id++ {
		want[id] = string(d.Decode(id).Append(nil, rdf.JSON))
	}
	return want
}

// TestRenderTableExact: the first JSON render builds the table over every
// id, each table span equals Term.Append's bytes, and ids encoded after
// the build render through Term.Append with identical bytes.
func TestRenderTableExact(t *testing.T) {
	d := New()
	for _, tm := range renderTerms {
		d.Encode(tm)
	}
	if d.RenderTableBytes() != 0 {
		t.Fatal("table built before the first JSON render")
	}
	d.AppendTerm(nil, 1, rdf.NTriples)
	if d.RenderTableBytes() != 0 {
		t.Fatal("an N-Triples render built the table")
	}
	want := serialJSON(t, d)
	d.AppendTerm(nil, 1, rdf.JSON)
	tab := d.render.Load()
	if tab == nil || len(tab.offs) != len(renderTerms)+1 || d.RenderTableBytes() <= 0 {
		t.Fatalf("table after the first JSON render: %+v, %d bytes", tab, d.RenderTableBytes())
	}
	for id := ID(1); int(id) <= len(renderTerms); id++ {
		if got := string(tab.buf[tab.offs[id-1]:tab.offs[id]]); got != want[id] {
			t.Fatalf("table bytes of %d = %q, want %q", id, got, want[id])
		}
	}
	for i := range renderTerms {
		d.Encode(rdf.NewLiteral(fmt.Sprintf("late \"%d\"", i)))
	}
	want = serialJSON(t, d)
	for id := ID(1); int(id) <= d.Len(); id++ {
		if got, ok := d.AppendTerm([]byte("x"), id, rdf.JSON); !ok || string(got) != "x"+want[id] {
			t.Fatalf("AppendTerm(%d) = %q, %v; want %q", id, got, ok, "x"+want[id])
		}
	}
	if d.render.Load() != tab {
		t.Fatal("table rebuilt")
	}
}

// brokenBase is a base whose id bad cannot be resolved, as a corrupt
// record of an on-disk base cannot.
type brokenBase struct {
	terms []rdf.Term
	bad   ID
}

func (b brokenBase) Len() int { return len(b.terms) }
func (b brokenBase) TryDecode(id ID) (rdf.Term, bool) {
	if id == None || id == b.bad || int(id) > len(b.terms) {
		return rdf.Term{}, false
	}
	return b.terms[id-1], true
}
func (b brokenBase) AppendTerm(dst []byte, id ID, syn *rdf.Syntax) ([]byte, bool) {
	t, ok := b.TryDecode(id)
	if !ok {
		return dst, false
	}
	return t.Append(dst, syn), true
}
func (b brokenBase) Lookup(rdf.Term) (ID, bool) { return None, false }

// TestRenderTableBrokenBaseRecord: an id the base cannot render leaves an
// empty span, so it still renders as invalid, and every other id of the
// base and of the tail renders as before.
func TestRenderTableBrokenBaseRecord(t *testing.T) {
	d := NewOver(brokenBase{terms: renderTerms, bad: 3})
	tail := d.Encode(rdf.NewIRI("http://x/tail"))
	for id := ID(1); int(id) <= d.Len(); id++ {
		got, ok := d.AppendTerm([]byte("x"), id, rdf.JSON)
		if id == 3 {
			if ok || string(got) != "x" {
				t.Fatalf("broken id rendered %q, %v", got, ok)
			}
			continue
		}
		tm := d.Decode(id)
		if want := tm.Append([]byte("x"), rdf.JSON); !ok || string(got) != string(want) {
			t.Fatalf("AppendTerm(%d) = %q, %v; want %q", id, got, ok, want)
		}
	}
	if tab := d.render.Load(); tab == nil || len(tab.offs) != int(tail)+1 {
		t.Fatal("table does not cover the base and the tail")
	}
}

// TestRaceJSONTable: 16 goroutines make the first JSON render together
// while another encodes fresh terms; every render equals the serial one.
func TestRaceJSONTable(t *testing.T) {
	d := New()
	for i := 0; i < 2000; i++ {
		d.Encode(renderTerms[i%len(renderTerms)])
		d.Encode(rdf.NewLangLiteral(fmt.Sprintf("term \"%d\"", i), "en"))
	}
	n := d.Len()
	want := serialJSON(t, d)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 2000; i++ {
			d.Encode(rdf.NewIRI(fmt.Sprintf("http://x/fresh%d", i)))
		}
	}()
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var buf []byte
			for id := ID(1); int(id) <= n; id++ {
				var ok bool
				if buf, ok = d.AppendTerm(buf[:0], id, rdf.JSON); !ok || string(buf) != want[id] {
					t.Errorf("AppendTerm(%d) = %q, %v; want %q", id, buf, ok, want[id])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	want = serialJSON(t, d)
	for id := ID(1); int(id) <= d.Len(); id++ {
		if got, _ := d.AppendTerm(nil, id, rdf.JSON); string(got) != want[id] {
			t.Fatalf("after the race, AppendTerm(%d) = %q, want %q", id, got, want[id])
		}
	}
}
