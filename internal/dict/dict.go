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
	"math"
	"sync"
	"sync/atomic"

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

	renderOnce sync.Once
	render     atomic.Pointer[renderTable] // nil until the first JSON render
}

// renderTable holds every term the Dict had when it was built, rendered in
// rdf.JSON: id's bytes are buf[offs[id-1]:offs[id]]. An empty span marks
// an id the build could not render (a corrupt record of an on-disk base);
// every valid term renders to at least two bytes.
type renderTable struct {
	offs []uint32 // n+1 entries for ids 1..n
	buf  []byte
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
// A JSON render copies the term's bytes out of the render table, which the
// first JSON render builds; ids minted since then, ids the build could not
// render and every other syntax render through Term.Append.
func (d *Dict) AppendTerm(dst []byte, id ID, syn *rdf.Syntax) ([]byte, bool) {
	if syn == rdf.JSON {
		tab := d.render.Load()
		if tab == nil {
			d.renderOnce.Do(d.buildRender)
			tab = d.render.Load()
		}
		if tab != nil && id != None && int(id) < len(tab.offs) {
			if lo, hi := tab.offs[id-1], tab.offs[id]; lo < hi {
				return append(dst, tab.buf[lo:hi]...), true
			}
		}
	}
	if id != None && int(id) <= d.nbase {
		return d.base.AppendTerm(dst, id, syn)
	}
	t, ok := d.TryDecode(id)
	if !ok {
		return dst, false
	}
	return t.Append(dst, syn), true
}

// buildRender renders ids 1..Len() into the render table with the renderer
// AppendTerm would otherwise use: the base's for base ids, Term.Append for
// the tail. The tail is taken under the read lock and rendered outside it;
// Encode only appends, so the entries taken never change. A table past
// 4 GiB is not kept, and every JSON render then takes the slow path.
func (d *Dict) buildRender() {
	d.mu.RLock()
	tail := d.terms
	d.mu.RUnlock()
	n := d.nbase + len(tail)
	offs := make([]uint32, n+1)
	buf := make([]byte, 0, 32*n) // terms average ≈ 36 bytes in the BSBM data
	for id := 1; id <= n; id++ {
		if id <= d.nbase {
			buf, _ = d.base.AppendTerm(buf, ID(id), rdf.JSON)
		} else {
			buf = tail[id-1-d.nbase].Append(buf, rdf.JSON)
		}
		if uint64(len(buf)) > math.MaxUint32 {
			return
		}
		offs[id] = uint32(len(buf))
	}
	d.render.Store(&renderTable{offs: offs, buf: buf})
}

// RenderTableBytes is the memory the render table holds, offsets and
// buffer: 0 until the first JSON render builds it.
func (d *Dict) RenderTableBytes() int {
	tab := d.render.Load()
	if tab == nil {
		return 0
	}
	return 4*cap(tab.offs) + cap(tab.buf)
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
