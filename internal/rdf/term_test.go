package rdf

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestTermConstructors(t *testing.T) {
	iri := NewIRI("http://example.org/a")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() {
		t.Fatalf("IRI kind predicates wrong: %+v", iri)
	}
	lit := NewLiteral("hello")
	if !lit.IsLiteral() || lit.Lang != "" || lit.Datatype != "" {
		t.Fatalf("plain literal wrong: %+v", lit)
	}
	ll := NewLangLiteral("bonjour", "fr")
	if ll.Lang != "fr" {
		t.Fatalf("lang literal wrong: %+v", ll)
	}
	tl := NewTypedLiteral("42", XSDInteger)
	if tl.Datatype != XSDInteger {
		t.Fatalf("typed literal wrong: %+v", tl)
	}
	b := NewBlank("b1")
	if !b.IsBlank() {
		t.Fatalf("blank wrong: %+v", b)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/a"), "<http://x/a>"},
		{NewBlank("b7"), "_:b7"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewInteger(42), `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewLiteral(`say "hi"` + "\n"), `"say \"hi\"\n"`},
		{NewBoolean(true), `"true"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
		{NewBoolean(false), `"false"^^<http://www.w3.org/2001/XMLSchema#boolean>`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTermCompare(t *testing.T) {
	a := NewIRI("http://x/a")
	b := NewIRI("http://x/b")
	l := NewLiteral("a")
	bl := NewBlank("a")
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Error("IRI ordering by value broken")
	}
	if a.Compare(a) != 0 {
		t.Error("Compare not reflexive")
	}
	if a.Compare(l) >= 0 {
		t.Error("IRI should sort before literal")
	}
	if l.Compare(bl) >= 0 {
		t.Error("literal should sort before blank")
	}
	if NewLangLiteral("x", "en").Compare(NewLangLiteral("x", "fr")) >= 0 {
		t.Error("lang tag must break ties")
	}
}

func TestTripleString(t *testing.T) {
	tr := NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewLiteral("o"))
	want := `<http://x/s> <http://x/p> "o" .`
	if got := tr.String(); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestTripleValid(t *testing.T) {
	s := NewIRI("http://x/s")
	p := NewIRI("http://x/p")
	o := NewLiteral("")
	if !NewTriple(s, p, o).Valid() {
		t.Error("empty literal object should be valid")
	}
	if NewTriple(NewLiteral("s"), p, o).Valid() {
		t.Error("literal subject should be invalid")
	}
	if NewTriple(s, NewBlank("p"), o).Valid() {
		t.Error("blank predicate should be invalid")
	}
	if NewTriple(Term{}, p, o).Valid() {
		t.Error("empty subject should be invalid")
	}
	if NewTriple(s, p, NewIRI("")).Valid() {
		t.Error("empty IRI object should be invalid")
	}
}

// Property: Key is injective over distinct structured terms (checked on
// random literal content).
func TestTermKeyInjective(t *testing.T) {
	f := func(a, b string, langA, langB bool) bool {
		ta := NewLiteral(a)
		tb := NewLiteral(b)
		if langA {
			ta = NewLangLiteral(a, "en")
		}
		if langB {
			tb = NewLangLiteral(b, "en")
		}
		if ta == tb {
			return ta.Key() == tb.Key()
		}
		return ta.Key() != tb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEscapeUnescapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if !isValidUTF8ForTest(s) {
			return true
		}
		got, err := Unescape(string(NTriples.escape(nil, s, &NTriples.lit)))
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func isValidUTF8ForTest(s string) bool {
	return strings.ToValidUTF8(s, "") == s
}

// TestJSONSyntaxIsEscapedNTriples: for any term, the JSON syntax between
// quotes is a valid JSON string that decodes to what encoding/json makes
// of the N-Triples rendering (invalid UTF-8 included: both give U+FFFD).
func TestJSONSyntaxIsEscapedNTriples(t *testing.T) {
	f := func(kind uint8, value, lang, datatype string) bool {
		tm := Term{Kind: Kind(kind % 3), Value: value, Lang: lang, Datatype: datatype}
		quoted := append(tm.Append([]byte{'"'}, JSON), '"')
		var got, want string
		ref, err := json.Marshal(tm.String())
		if err != nil || json.Unmarshal(ref, &want) != nil {
			return false
		}
		return utf8.Valid(quoted) && json.Unmarshal(quoted, &got) == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"", "a\\b\"c", "\x00\x1f\x7f <>&{}|^`", "\xff\xfe", "tab\tnl\ncr\r", "\u2028 \U0001F600"} {
		if !f(0, v, "", "") || !f(1, v, v, "") || !f(1, v, "", v) || !f(2, v, "", "") {
			t.Fatalf("JSON syntax disagrees with encoding/json on %q", v)
		}
	}
}
