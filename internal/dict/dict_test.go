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
