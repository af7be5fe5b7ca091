// Package dict implements dictionary encoding of RDF terms: a bijection
// between terms and dense uint32 IDs. Dictionary encoding is the standard
// first step in RDF stores (RDF-3X, Virtuoso, Hexastore): all downstream
// index structures and joins operate on fixed-width IDs instead of strings.
//
// IDs are assigned in insertion order starting at 1; 0 is reserved as the
// invalid/absent ID.
package dict

import (
	"fmt"
	"sync"

	"repro/internal/rdf"
)

// ID is a dictionary-encoded term identifier. 0 is never a valid ID.
type ID uint32

// None is the zero, invalid ID.
const None ID = 0

// Base is a read-only term table a Dict can sit on top of: ids [1, Len()]
// resolve through the base, fresh terms are assigned ids above it by the
// mutable tail. The mmap-backed snapshot dictionary (store.OpenMapped)
// implements Base over its on-disk offset table and string heap; because
// tail ids continue exactly where the base stops, a store opened mapped
// assigns the same ids to the same new terms as its heap-loaded twin, which
// is what keeps results bit-identical across backings. Implementations must
// be safe for concurrent use (immutable bases are trivially so).
//
// TryDecode returns (zero, false) for ids the base cannot resolve — on an
// untrusted on-disk base that includes corrupt records, never a panic.
// AppendTerm is TryDecode followed by Term.Append, without the Term: it
// returns (dst, false) for the same ids.
type Base interface {
	Len() int
	TryDecode(ID) (rdf.Term, bool)
	AppendTerm(dst []byte, id ID, syn *rdf.Syntax) ([]byte, bool)
	Lookup(rdf.Term) (ID, bool)
}

// Dict maps rdf.Term values to dense IDs and back. It is safe for
// concurrent use; lookups take a read lock, Encode takes a write lock only
// when inserting a new term. A Dict may wrap a read-only Base (NewOver):
// the base owns ids [1, nbase] and the mutable tail continues from
// nbase+1.
type Dict struct {
	mu    sync.RWMutex
	base  Base            // optional read-only bottom layer (nil for none)
	nbase int             // base.Len() at creation, 0 without a base
	terms []rdf.Term      // terms[id-1-nbase] is the term for id
	ids   map[rdf.Term]ID // inverse mapping of the tail only
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{ids: make(map[rdf.Term]ID)}
}

// NewWithCapacity returns an empty dictionary pre-sized for n terms.
func NewWithCapacity(n int) *Dict {
	return &Dict{
		terms: make([]rdf.Term, 0, n),
		ids:   make(map[rdf.Term]ID, n),
	}
}

// NewOver returns a dictionary whose ids [1, base.Len()] resolve through
// the read-only base; Encode assigns fresh terms ids from base.Len()+1
// upward. The base must not change size afterwards.
func NewOver(base Base) *Dict {
	return &Dict{base: base, nbase: base.Len(), ids: make(map[rdf.Term]ID)}
}

// Base returns the read-only bottom layer, or nil for a plain dictionary.
func (d *Dict) Base() Base { return d.base }

// Encode returns the ID for t, assigning a fresh one if t is new.
func (d *Dict) Encode(t rdf.Term) ID {
	if d.base != nil {
		if id, ok := d.base.Lookup(t); ok {
			return id
		}
	}
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[t]; ok {
		return id
	}
	d.terms = append(d.terms, t)
	id = ID(d.nbase + len(d.terms))
	d.ids[t] = id
	return id
}

// Lookup returns the ID for t, or (None, false) if t has not been encoded.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	if d.base != nil {
		if id, ok := d.base.Lookup(t); ok {
			return id, true
		}
	}
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	return id, ok
}

// Decode returns the term for id. It panics on an invalid ID — an invalid
// ID inside the engine is a programming error, not an input error. (An id
// a corrupt mapped base cannot resolve also panics here; untrusted-input
// paths must use TryDecode.)
func (d *Dict) Decode(id ID) rdf.Term {
	t, ok := d.TryDecode(id)
	if !ok {
		panic(fmt.Sprintf("dict: decode of invalid id %d (size %d)", id, d.Len()))
	}
	return t
}

// TryDecode returns the term for id, or (zero, false) if id is invalid.
func (d *Dict) TryDecode(id ID) (rdf.Term, bool) {
	if id == None {
		return rdf.Term{}, false
	}
	if int(id) <= d.nbase {
		return d.base.TryDecode(id)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	i := int(id) - d.nbase
	if i > len(d.terms) {
		return rdf.Term{}, false
	}
	return d.terms[i-1], true
}

// AppendTerm appends the rendering of id's term in syntax syn to dst, or
// returns (dst, false) if id is invalid; nothing is allocated beyond dst.
func (d *Dict) AppendTerm(dst []byte, id ID, syn *rdf.Syntax) ([]byte, bool) {
	if id != None && int(id) <= d.nbase {
		return d.base.AppendTerm(dst, id, syn)
	}
	t, ok := d.TryDecode(id)
	if !ok {
		return dst, false
	}
	return t.Append(dst, syn), true
}

// Len returns the number of distinct terms encoded.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nbase + len(d.terms)
}

// EncodeIRI is a convenience for Encode(rdf.NewIRI(iri)).
func (d *Dict) EncodeIRI(iri string) ID { return d.Encode(rdf.NewIRI(iri)) }

// LookupIRI is a convenience for Lookup(rdf.NewIRI(iri)).
func (d *Dict) LookupIRI(iri string) (ID, bool) { return d.Lookup(rdf.NewIRI(iri)) }
