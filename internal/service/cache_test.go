package service

import (
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestBindingSignature(t *testing.T) {
	if got := bindingSignature(nil); got != "" {
		t.Fatalf("nil binding signature = %q", got)
	}
	a := sparql.Binding{
		"x": rdf.NewIRI("http://x/1"),
		"y": rdf.NewLiteral("v"),
	}
	b := sparql.Binding{
		"y": rdf.NewLiteral("v"),
		"x": rdf.NewIRI("http://x/1"),
	}
	if bindingSignature(a) != bindingSignature(b) {
		t.Fatal("signature depends on map insertion order")
	}
	c := sparql.Binding{
		"x": rdf.NewIRI("http://x/2"),
		"y": rdf.NewLiteral("v"),
	}
	if bindingSignature(a) == bindingSignature(c) {
		t.Fatal("different terms must produce different signatures")
	}
	// Parameter-name/term boundaries cannot be confused.
	d := sparql.Binding{"xy": rdf.NewLiteral("v")}
	e := sparql.Binding{"x": rdf.NewLiteral("yv")}
	if bindingSignature(d) == bindingSignature(e) {
		t.Fatal("name/term boundary ambiguity")
	}
}

func TestCacheKey(t *testing.T) {
	b := sparql.Binding{"t": rdf.NewIRI("http://x/T")}
	if cacheKey("SELECT A", b) == cacheKey("SELECT B", b) {
		t.Fatal("different templates must produce different keys")
	}
	if cacheKey("SELECT A", b) != cacheKey("SELECT A", sparql.Binding{"t": rdf.NewIRI("http://x/T")}) {
		t.Fatal("equal template+binding must produce equal keys")
	}
	if cacheKey("SELECT A", nil) == cacheKey("SELECT A", b) {
		t.Fatal("bound and unbound keys must differ")
	}
}
