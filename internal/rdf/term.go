// Package rdf provides the RDF data model used throughout the repository:
// terms (IRIs, literals, blank nodes), triples, and an N-Triples
// reader/writer. It is deliberately small — just enough W3C RDF 1.1 for
// benchmark datasets — but strict about syntax so that generated datasets
// round-trip exactly.
package rdf

import (
	"fmt"
	"strings"
)

// Kind discriminates the three RDF term kinds.
type Kind uint8

const (
	// IRI is an absolute IRI reference, e.g. <http://example.org/p1>.
	IRI Kind = iota
	// Literal is an RDF literal with optional language tag or datatype.
	Literal
	// Blank is a blank node, e.g. _:b42.
	Blank
)

// String returns the kind name for debugging.
func (k Kind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Literal:
		return "Literal"
	case Blank:
		return "Blank"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Common XSD datatype IRIs.
const (
	XSDString   = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal  = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble   = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean  = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDate     = "http://www.w3.org/2001/XMLSchema#date"
	XSDDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"
	// RDFType is the rdf:type predicate IRI.
	RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
)

// Term is a single RDF term. The zero value is the empty IRI, which is not a
// valid term; use the constructors.
//
// Value holds the IRI string (without angle brackets), the literal lexical
// form, or the blank node label (without the "_:" prefix). Lang and Datatype
// are only meaningful for literals; at most one of them is set, and a plain
// literal has both empty (its effective datatype is xsd:string).
type Term struct {
	Kind     Kind
	Value    string
	Lang     string
	Datatype string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewBlank returns a blank-node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewLiteral returns a plain literal (effective datatype xsd:string).
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return NewTypedLiteral(fmt.Sprintf("%d", v), XSDInteger)
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Term {
	if v {
		return NewTypedLiteral("true", XSDBoolean)
	}
	return NewTypedLiteral("false", XSDBoolean)
}

// IsIRI reports whether t is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether t is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether t is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// Equal reports whether two terms are identical (same kind, value, language
// tag and datatype).
func (t Term) Equal(o Term) bool { return t == o }

// Compare orders terms: IRIs < Literals < Blanks, then by value, datatype
// and language. It returns -1, 0 or +1. The order is total and is used by
// the dictionary and tests; it is not SPARQL ORDER BY semantics.
func (t Term) Compare(o Term) int {
	if t.Kind != o.Kind {
		if t.Kind < o.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, o.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, o.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, o.Lang)
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var buf [128]byte
	return string(t.Append(buf[:0], NTriples))
}

// Append appends the term's N-Triples rendering, encoded as syn says, to
// dst. It is the only renderer: String, Triple.String, the dictionary's
// append-style decode and the service's result writer all end here.
func (t Term) Append(dst []byte, syn *Syntax) []byte {
	switch t.Kind {
	case IRI:
		dst = append(dst, '<')
		dst = syn.escape(dst, t.Value, &syn.iri)
		dst = append(dst, '>')
	case Blank:
		dst = append(dst, "_:"...)
		dst = syn.escape(dst, t.Value, &syn.bare)
	case Literal:
		dst = append(dst, syn.quote...)
		dst = syn.escape(dst, t.Value, &syn.lit)
		dst = append(dst, syn.quote...)
		switch {
		case t.Lang != "":
			dst = append(dst, '@')
			dst = syn.escape(dst, t.Lang, &syn.bare)
		case t.Datatype != "" && t.Datatype != XSDString:
			dst = append(dst, "^^<"...)
			dst = syn.escape(dst, t.Datatype, &syn.iri)
			dst = append(dst, '>')
		}
	}
	return dst
}

// Key returns a canonical string key for the term, unique across kinds. It
// is the N-Triples rendering, which is injective for valid terms.
func (t Term) Key() string { return t.String() }

// Triple is a single RDF statement.
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple as an N-Triples line (without newline).
func (t Triple) String() string {
	var buf [256]byte
	b := t.S.Append(buf[:0], NTriples)
	b = t.P.Append(append(b, ' '), NTriples)
	b = t.O.Append(append(b, ' '), NTriples)
	return string(append(b, " ."...))
}

// Valid performs a shallow well-formedness check: subject is IRI or blank,
// predicate is IRI, object is any term, and no empty values.
func (t Triple) Valid() bool {
	if t.S.Value == "" || t.P.Value == "" {
		return false
	}
	if t.S.Kind == Literal || t.P.Kind != IRI {
		return false
	}
	if t.O.Kind != Literal && t.O.Value == "" {
		return false
	}
	return true
}
