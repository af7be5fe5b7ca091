package store

import (
	"encoding/binary"
	"sync/atomic"
	"unsafe"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// This file implements the mmap-backed side of a store: a refcounted
// Mapping over the raw snapshot bytes, zero-copy reinterpreted views of
// the page-aligned v4 sections (permutation indexes as []IDTriple,
// offset/sorted tables as integer slices), and mappedTerms, the dict.Base
// that resolves term ids directly against the on-disk offset table and
// string heap. A mapped store holds the index views in the same
// []IDTriple fields a heap-built one does, plus the Mapping (Store.mapped),
// so every read path and the delta overlay run unchanged over either
// backing. Every accessor that follows untrusted on-disk offsets is
// bounds-checked: a corrupt file yields a failed TryDecode or an empty
// match, never an out-of-range access or panic.

// Mapping is a refcounted read-only view of a v4 snapshot's bytes —
// usually an OS file mapping, or a plain in-memory buffer for
// OpenMappedBytes and non-unix fallbacks. It is created with one
// reference, owned by whoever opened it; holders that outlive the opener
// (e.g. each service snapshot generation) Retain their own reference, and
// the unmap syscall runs only when the last reference is released. That is
// what lets /reload swap mappings while in-flight queries — whose result
// rows and dictionary still point into the old mapping — drain safely.
type Mapping struct {
	data  []byte
	size  int
	refs  atomic.Int64
	unmap func([]byte) error
}

func newMapping(data []byte, unmap func([]byte) error) *Mapping {
	m := &Mapping{data: data, size: len(data), unmap: unmap}
	m.refs.Store(1)
	return m
}

// Size returns the mapped byte count (fixed at creation).
func (m *Mapping) Size() int { return m.size }

// Refs returns the current reference count (for tests and gauges).
func (m *Mapping) Refs() int64 { return m.refs.Load() }

// Retain adds a reference. It returns false — without retaining — when the
// mapping has already been fully released; callers must then treat the
// mapping (and any store over it) as gone.
func (m *Mapping) Retain() bool {
	for {
		n := m.refs.Load()
		if n <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops one reference; the last release unmaps the file. Releasing
// more times than retained is a bug the refcount makes visible (Retain
// fails forever after).
func (m *Mapping) Release() {
	if m.refs.Add(-1) != 0 {
		return
	}
	if m.unmap != nil {
		_ = m.unmap(m.data)
	}
	m.data = nil
}

// hostLittleEndian reports whether the host lays integers out
// little-endian — the only byte order the zero-copy v4 views support (the
// format itself is defined little-endian).
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// Zero-copy section views. The callers (openMappedData) have already
// verified section bounds, byte widths and the base pointer's alignment,
// so the unsafe.Slice reinterpretations below are in-bounds and aligned.

func viewTriples(b []byte) []IDTriple {
	if len(b) < idTripleBytes {
		return nil
	}
	return unsafe.Slice((*IDTriple)(unsafe.Pointer(&b[0])), len(b)/idTripleBytes)
}

func viewUint64(b []byte) []uint64 {
	if len(b) < 8 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func viewIDs(b []byte) []dict.ID {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*dict.ID)(unsafe.Pointer(&b[0])), len(b)/4)
}

// idTripleBytes is the on-disk (and in-memory) width of an IDTriple: three
// little-endian uint32 components, no padding.
const idTripleBytes = 12

// mappedTerms resolves dictionary ids against the v4 term sections: the
// (nTerms+1)-entry offset table, the contiguous string heap, and the
// sorted-id table that orders ids by rdf.Term.Compare for binary-search
// Lookup. It implements dict.Base; the store's *dict.Dict wraps it via
// dict.NewOver, so updates over a mapped store encode fresh terms into a
// mutable tail with exactly the id sequence a heap-backed store would
// assign.
//
// All accessors are hardened against corrupt on-disk input: offsets are
// checked against the heap bounds, records must parse to exactly their
// offset-delimited length, and any violation surfaces as a failed
// TryDecode / Lookup — never a panic or out-of-range read.
type mappedTerms struct {
	m      *Mapping
	n      int       // term count
	offs   []uint64  // n+1 entries, record i spans heap[offs[i]:offs[i+1]]
	heap   []byte    // term records: kind byte + 3 uvarint-length strings
	sorted []dict.ID // ids 1..n ordered by rdf.Term.Compare
}

func (mt *mappedTerms) mapping() *Mapping { return mt.m }

// Len returns the term count.
func (mt *mappedTerms) Len() int { return mt.n }

// record returns the raw bytes of term id's record, or false when the
// offset table entry is corrupt.
func (mt *mappedTerms) record(id dict.ID) ([]byte, bool) {
	if id == dict.None || int(id) > mt.n {
		return nil, false
	}
	lo, hi := mt.offs[id-1], mt.offs[id]
	if lo > hi || hi > uint64(len(mt.heap)) {
		return nil, false
	}
	return mt.heap[lo:hi], true
}

// parsed is record followed by parseRecord: term id's kind and component
// views into the heap, or false when either fails.
func (mt *mappedTerms) parsed(id dict.ID) (kind rdf.Kind, value, lang, datatype []byte, ok bool) {
	rec, ok := mt.record(id)
	if !ok {
		return 0, nil, nil, nil, false
	}
	return parseRecord(rec)
}

// parseRecord splits a term record into its kind and three component byte
// views (no copying). It fails on truncated records, invalid kinds, and
// records with trailing garbage.
func parseRecord(rec []byte) (kind rdf.Kind, value, lang, datatype []byte, ok bool) {
	if len(rec) < 1 || rec[0] > byte(rdf.Blank) {
		return 0, nil, nil, nil, false
	}
	kind = rdf.Kind(rec[0])
	rest := rec[1:]
	next := func() ([]byte, bool) {
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w) {
			return nil, false
		}
		s := rest[w : w+int(n)]
		rest = rest[w+int(n):]
		return s, true
	}
	if value, ok = next(); !ok {
		return 0, nil, nil, nil, false
	}
	if lang, ok = next(); !ok {
		return 0, nil, nil, nil, false
	}
	if datatype, ok = next(); !ok {
		return 0, nil, nil, nil, false
	}
	if len(rest) != 0 {
		return 0, nil, nil, nil, false
	}
	return kind, value, lang, datatype, true
}

// TryDecode returns the term for id, copying the component strings out of
// the mapping (so decoded terms never dangle into a released mapping
// through anything but the dictionary itself, whose lifecycle the Mapping
// refcount covers).
func (mt *mappedTerms) TryDecode(id dict.ID) (rdf.Term, bool) {
	kind, value, lang, datatype, ok := mt.parsed(id)
	if !ok {
		return rdf.Term{}, false
	}
	return rdf.Term{Kind: kind, Value: string(value), Lang: string(lang), Datatype: string(datatype)}, true
}

// AppendTerm renders term id straight from the mapped string heap: the
// Term aliases the record's bytes and does not outlive the call.
func (mt *mappedTerms) AppendTerm(dst []byte, id dict.ID, syn *rdf.Syntax) ([]byte, bool) {
	kind, value, lang, datatype, ok := mt.parsed(id)
	if !ok {
		return dst, false
	}
	view := func(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
	t := rdf.Term{Kind: kind, Value: view(value), Lang: view(lang), Datatype: view(datatype)}
	return t.Append(dst, syn), true
}

// compareRecord orders a raw term record against t with rdf.Term.Compare
// semantics (Kind, Value, Datatype, Lang) without copying the record's
// strings. The bool result is false for unparseable records.
func (mt *mappedTerms) compareRecord(id dict.ID, t rdf.Term) (int, bool) {
	kind, value, lang, datatype, ok := mt.parsed(id)
	if !ok {
		return 0, false
	}
	if kind != t.Kind {
		if kind < t.Kind {
			return -1, true
		}
		return 1, true
	}
	if c := cmpBytesString(value, t.Value); c != 0 {
		return c, true
	}
	if c := cmpBytesString(datatype, t.Datatype); c != 0 {
		return c, true
	}
	return cmpBytesString(lang, t.Lang), true
}

func cmpBytesString(b []byte, s string) int {
	n := min(len(b), len(s))
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// Lookup finds t by binary search over the sorted-id table. On a corrupt
// table (unparseable records, broken ordering) it degrades to a miss,
// never a fault.
func (mt *mappedTerms) Lookup(t rdf.Term) (dict.ID, bool) {
	lo, hi := 0, len(mt.sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c, ok := mt.compareRecord(mt.sorted[mid], t)
		if !ok {
			return dict.None, false
		}
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mt.sorted[mid], true
		}
	}
	return dict.None, false
}
