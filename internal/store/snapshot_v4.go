package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"unsafe"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// Snapshot v4: the disk-native, mmap-scannable layout. A v4 file IS the
// store, not a serialization to decode and rebuild: every
// structure the read path touches — the six permutation indexes, the
// dictionary and the statistics — is stored page-aligned and fixed-width,
// so OpenMapped maps the file, validates the header page in O(1) and
// serves queries straight off the mapping while the OS page cache does
// buffer management. Startup cost is independent of dataset size, and the
// working set may exceed RAM.
//
// All integers are little-endian. The file is a sequence of 4096-byte-
// aligned sections, located by a section table in the header page:
//
//	header page (4096 bytes):
//	  magic        [8]byte  "RDFSNAP4"
//	  pageSize     uint32   (4096)
//	  typeID       uint32   dictionary id of rdf:type, 0 if absent
//	  nTriples     uint64
//	  nTerms       uint64
//	  termHeapLen  uint64
//	  nPreds       uint64
//	  nClasses     uint64
//	  nTypeMembers uint64
//	  fileSize     uint64
//	  sections     12 × { off uint64, len uint64 }
//
//	section 0–5:  permutation indexes (SPO, SOP, PSO, POS, OSP, OPS) —
//	              nTriples × 12 bytes {s, p, o uint32}, each sorted by
//	              its order; scanned zero-copy as []IDTriple
//	section 6:    term offset table — (nTerms+1) × uint64 offsets into
//	              the heap; record of id i spans [off[i-1], off[i])
//	section 7:    term string heap — per record: kind byte, then value,
//	              lang, datatype as uvarint-length-prefixed bytes
//	section 8:    sorted-id table — nTerms × uint32 ids ordered by
//	              rdf.Term.Compare (binary-search Lookup without a map)
//	section 9:    predicate stats — nPreds × {pred, count, distinctS,
//	              distinctO uint32}, ascending pred
//	section 10:   class table — nClasses × {class, start, count uint32},
//	              ascending class; start/count index section 11
//	section 11:   rdf:type members — nTypeMembers × uint32 subject ids,
//	              the concatenated sorted member runs of section 10
//
// Section offsets are fully determined by the header counts (each section
// starts at the next page boundary after its predecessor, in the order
// above), which is what lets the reader validate the whole table — bounds,
// alignment, widths, non-overlap — by recomputing it, in O(1).
//
// Trust model (two tiers, split by cost):
// OpenMapped performs O(1) structural validation of the header page plus
// per-access bounds checks on everything reached through untrusted offsets
// (term records fail TryDecode, never fault); ReadSnapshot on a v4 file is
// the fully-validating path — it checks the whole triple stream and
// dictionary and rebuilds a heap store through the standard construction
// path.
const (
	snapshotMagicV4 = "RDFSNAP4"
	v4PageSize      = 4096
	v4NumSections   = 12
	v4HeaderLen     = 72 + v4NumSections*16

	v4SecOffTable    = 6
	v4SecTermHeap    = 7
	v4SecSortedIDs   = 8
	v4SecPredStats   = 9
	v4SecClassTable  = 10
	v4SecTypeMembers = 11
)

type v4Section struct{ off, len uint64 }

type v4Header struct {
	typeID       uint32
	nTriples     uint64
	nTerms       uint64
	heapLen      uint64
	nPreds       uint64
	nClasses     uint64
	nTypeMembers uint64
	fileSize     uint64
	sections     [v4NumSections]v4Section
}

func v4Align(x uint64) uint64 { return (x + v4PageSize - 1) &^ uint64(v4PageSize-1) }

// layout fills in the section table and file size from the counts: the
// canonical placement every writer produces and every reader verifies.
func (h *v4Header) layout() {
	sizes := [v4NumSections]uint64{}
	for o := 0; o < int(numOrders); o++ {
		sizes[o] = h.nTriples * idTripleBytes
	}
	sizes[v4SecOffTable] = (h.nTerms + 1) * 8
	sizes[v4SecTermHeap] = h.heapLen
	sizes[v4SecSortedIDs] = h.nTerms * 4
	sizes[v4SecPredStats] = h.nPreds * 16
	sizes[v4SecClassTable] = h.nClasses * 12
	sizes[v4SecTypeMembers] = h.nTypeMembers * 4
	off := uint64(v4PageSize)
	for i, sz := range sizes {
		h.sections[i] = v4Section{off: off, len: sz}
		off = v4Align(off + sz)
	}
	h.fileSize = off
}

// writeV4 lays the store out in the v4 format. A pending delta is folded
// in: each permutation section receives that order's merged run, and the
// statistics sections are written from the overlay's patched-exact values,
// so the file opens as the equivalent plain store.
func (s *Store) writeV4(bw *bufio.Writer) error {
	nTerms := s.dict.Len()
	if s.n > math.MaxUint32 || nTerms > math.MaxUint32 {
		return fmt.Errorf("store: %d triples / %d terms exceed the v4 32-bit id space", s.n, nTerms)
	}
	// Decode the dictionary once; record offsets and the Compare-sorted id
	// table both derive from it.
	terms := make([]rdf.Term, nTerms)
	for i := range terms {
		terms[i] = s.dict.Decode(dict.ID(i + 1))
	}
	offs := make([]uint64, nTerms+1)
	for i, t := range terms {
		offs[i+1] = offs[i] + termRecordLen(t)
	}
	sorted := make([]dict.ID, nTerms)
	for i := range sorted {
		sorted[i] = dict.ID(i + 1)
	}
	sort.Slice(sorted, func(i, j int) bool {
		return terms[sorted[i]-1].Compare(terms[sorted[j]-1]) < 0
	})
	preds := s.Predicates()
	classes := make([]dict.ID, 0, len(s.typeIdx))
	nMembers := 0
	for c, subjects := range s.typeIdx {
		classes = append(classes, c)
		nMembers += len(subjects)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	h := v4Header{
		typeID:       uint32(s.typeID),
		nTriples:     uint64(s.n),
		nTerms:       uint64(nTerms),
		heapLen:      offs[nTerms],
		nPreds:       uint64(len(preds)),
		nClasses:     uint64(len(classes)),
		nTypeMembers: uint64(nMembers),
	}
	h.layout()

	w := &v4Writer{bw: bw}
	w.writeHeader(&h)

	// Sections 0–5: the six permutation indexes, overlay-merged.
	var tbuf [idTripleBytes]byte
	for o := order(0); o < numOrders; o++ {
		w.padTo(h.sections[o].off)
		run := s.idx[o]
		if s.delta != nil {
			run = applyRun(run, s.delta.del[o], s.delta.ins[o], o)
		}
		for _, t := range run {
			binary.LittleEndian.PutUint32(tbuf[0:4], uint32(t.S))
			binary.LittleEndian.PutUint32(tbuf[4:8], uint32(t.P))
			binary.LittleEndian.PutUint32(tbuf[8:12], uint32(t.O))
			w.write(tbuf[:])
		}
	}
	// Section 6: term offset table.
	w.padTo(h.sections[v4SecOffTable].off)
	var u64 [8]byte
	for _, off := range offs {
		binary.LittleEndian.PutUint64(u64[:], off)
		w.write(u64[:])
	}
	// Section 7: term string heap.
	w.padTo(h.sections[v4SecTermHeap].off)
	var vbuf [binary.MaxVarintLen64]byte
	for _, t := range terms {
		w.write([]byte{byte(t.Kind)})
		for _, part := range [3]string{t.Value, t.Lang, t.Datatype} {
			n := binary.PutUvarint(vbuf[:], uint64(len(part)))
			w.write(vbuf[:n])
			w.writeString(part)
		}
	}
	// Section 8: Compare-sorted id table.
	w.padTo(h.sections[v4SecSortedIDs].off)
	var u32 [4]byte
	for _, id := range sorted {
		binary.LittleEndian.PutUint32(u32[:], uint32(id))
		w.write(u32[:])
	}
	// Section 9: predicate statistics, ascending predicate id.
	w.padTo(h.sections[v4SecPredStats].off)
	var pbuf [16]byte
	for _, p := range preds {
		st := s.pstats[p]
		binary.LittleEndian.PutUint32(pbuf[0:4], uint32(p))
		binary.LittleEndian.PutUint32(pbuf[4:8], uint32(st.Count))
		binary.LittleEndian.PutUint32(pbuf[8:12], uint32(st.DistinctS))
		binary.LittleEndian.PutUint32(pbuf[12:16], uint32(st.DistinctO))
		w.write(pbuf[:])
	}
	// Section 10: class table; section 11: concatenated member runs.
	w.padTo(h.sections[v4SecClassTable].off)
	var cbuf [12]byte
	start := 0
	for _, c := range classes {
		subjects := s.typeIdx[c]
		binary.LittleEndian.PutUint32(cbuf[0:4], uint32(c))
		binary.LittleEndian.PutUint32(cbuf[4:8], uint32(start))
		binary.LittleEndian.PutUint32(cbuf[8:12], uint32(len(subjects)))
		w.write(cbuf[:])
		start += len(subjects)
	}
	w.padTo(h.sections[v4SecTypeMembers].off)
	for _, c := range classes {
		for _, subj := range s.typeIdx[c] {
			binary.LittleEndian.PutUint32(u32[:], uint32(subj))
			w.write(u32[:])
		}
	}
	w.padTo(h.fileSize)
	return w.err
}

// termRecordLen is the heap footprint of one term record.
func termRecordLen(t rdf.Term) uint64 {
	n := uint64(1)
	for _, part := range [3]string{t.Value, t.Lang, t.Datatype} {
		n += uint64(uvarintLen(uint64(len(part)))) + uint64(len(part))
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// v4Writer tracks the output offset so sections land exactly where the
// header's layout says, with zero padding between them.
type v4Writer struct {
	bw  *bufio.Writer
	off uint64
	err error
}

var v4Zeros [v4PageSize]byte

func (w *v4Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.Write(b)
	w.off += uint64(len(b))
}

func (w *v4Writer) writeString(s string) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.WriteString(s)
	w.off += uint64(len(s))
}

func (w *v4Writer) padTo(off uint64) {
	for w.err == nil && w.off < off {
		n := off - w.off
		if n > v4PageSize {
			n = v4PageSize
		}
		w.write(v4Zeros[:n])
	}
}

func (w *v4Writer) writeHeader(h *v4Header) {
	page := make([]byte, v4PageSize)
	copy(page, snapshotMagicV4)
	binary.LittleEndian.PutUint32(page[8:12], v4PageSize)
	binary.LittleEndian.PutUint32(page[12:16], h.typeID)
	binary.LittleEndian.PutUint64(page[16:24], h.nTriples)
	binary.LittleEndian.PutUint64(page[24:32], h.nTerms)
	binary.LittleEndian.PutUint64(page[32:40], h.heapLen)
	binary.LittleEndian.PutUint64(page[40:48], h.nPreds)
	binary.LittleEndian.PutUint64(page[48:56], h.nClasses)
	binary.LittleEndian.PutUint64(page[56:64], h.nTypeMembers)
	binary.LittleEndian.PutUint64(page[64:72], h.fileSize)
	at := 72
	for _, sec := range h.sections {
		binary.LittleEndian.PutUint64(page[at:at+8], sec.off)
		binary.LittleEndian.PutUint64(page[at+8:at+16], sec.len)
		at += 16
	}
	w.write(page)
}

// OpenMapped maps a v4 snapshot file and returns a ready *Store backed by
// it, in O(1): only the header page is validated — magic, counts, and the
// recomputed section table (which pins every section's offset, length,
// alignment and non-overlap) — and no index or dictionary data is
// deserialized. Everything reached later through on-disk offsets is
// bounds-checked at access time, so a corrupt file degrades to failed
// TryDecodes and empty matches, never a fault. Call Mapping().Release when
// done with the store (long-lived holders Retain their own reference).
func OpenMapped(path string) (*Store, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	st, err := openMappedData(data, unmap)
	if err != nil {
		if unmap != nil && len(data) > 0 {
			_ = unmap(data)
		}
		return nil, err
	}
	return st, nil
}

// OpenMappedFile is OpenMapped over an already-open file. The mapping is
// taken from f's descriptor directly, so callers that sniffed the format
// from f (Open) serve exactly the file they sniffed even if the
// path has been rewritten since. f's read offset is irrelevant and the
// caller keeps ownership of f (closing it does not invalidate the
// mapping).
func OpenMappedFile(f *os.File) (*Store, error) {
	data, unmap, err := mmapFd(f)
	if err != nil {
		return nil, err
	}
	st, err := openMappedData(data, unmap)
	if err != nil {
		if unmap != nil && len(data) > 0 {
			_ = unmap(data)
		}
		return nil, err
	}
	return st, nil
}

// OpenMappedBytes is OpenMapped over an in-memory v4 image — the fuzzing
// and testing entry point, and the carrier for the non-unix fallback. The
// buffer is copied only if it is not 8-byte aligned.
func OpenMappedBytes(data []byte) (*Store, error) {
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		buf := make([]uint64, (len(data)+7)/8)
		aligned := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(data))
		copy(aligned, data)
		data = aligned
	}
	return openMappedData(data, nil)
}

// openMappedData performs the O(1) structural validation and assembles the
// Store over zero-copy views.
func openMappedData(data []byte, unmap func([]byte) error) (*Store, error) {
	if !hostLittleEndian() {
		return nil, fmt.Errorf("store: v4 mapped snapshots require a little-endian host")
	}
	if len(data) < v4PageSize {
		return nil, fmt.Errorf("store: v4 snapshot truncated: %d bytes, want at least one %d-byte page", len(data), v4PageSize)
	}
	if string(data[:8]) != snapshotMagicV4 {
		return nil, fmt.Errorf("store: bad snapshot magic %q", data[:8])
	}
	if ps := binary.LittleEndian.Uint32(data[8:12]); ps != v4PageSize {
		return nil, fmt.Errorf("store: v4 page size %d, want %d", ps, v4PageSize)
	}
	h := v4Header{
		typeID:       binary.LittleEndian.Uint32(data[12:16]),
		nTriples:     binary.LittleEndian.Uint64(data[16:24]),
		nTerms:       binary.LittleEndian.Uint64(data[24:32]),
		heapLen:      binary.LittleEndian.Uint64(data[32:40]),
		nPreds:       binary.LittleEndian.Uint64(data[40:48]),
		nClasses:     binary.LittleEndian.Uint64(data[48:56]),
		nTypeMembers: binary.LittleEndian.Uint64(data[56:64]),
		fileSize:     binary.LittleEndian.Uint64(data[64:72]),
	}
	// Count caps first: they bound every product in layout() well below
	// uint64 overflow, so the strict table comparison below cannot be
	// defeated by wraparound.
	if h.nTriples > math.MaxUint32 || h.nTerms > math.MaxUint32 {
		return nil, fmt.Errorf("store: v4 header counts %d/%d exceed 32-bit id space", h.nTriples, h.nTerms)
	}
	if h.nPreds > h.nTerms || h.nClasses > h.nTerms {
		return nil, fmt.Errorf("store: v4 header claims %d predicates / %d classes over %d terms", h.nPreds, h.nClasses, h.nTerms)
	}
	if h.nTypeMembers > h.nTriples {
		return nil, fmt.Errorf("store: v4 header claims %d type members over %d triples", h.nTypeMembers, h.nTriples)
	}
	if h.heapLen > uint64(len(data)) {
		return nil, fmt.Errorf("store: v4 term heap length %d exceeds file size %d", h.heapLen, len(data))
	}
	if uint64(h.typeID) > h.nTerms {
		return nil, fmt.Errorf("store: v4 rdf:type id %d outside [0, %d]", h.typeID, h.nTerms)
	}
	// The section table is fully determined by the counts: recompute it and
	// require exact agreement. This rejects out-of-range offsets,
	// overlapping or misaligned sections and length/count mismatches in one
	// comparison, and pins fileSize == len(data).
	want := h
	want.layout()
	if want.fileSize != uint64(len(data)) || h.fileSize != want.fileSize {
		return nil, fmt.Errorf("store: v4 file size %d (header %d) does not match layout %d", len(data), h.fileSize, want.fileSize)
	}
	stored := data[72 : 72+v4NumSections*16]
	for i := range want.sections {
		off := binary.LittleEndian.Uint64(stored[i*16:])
		length := binary.LittleEndian.Uint64(stored[i*16+8:])
		if off != want.sections[i].off || length != want.sections[i].len {
			return nil, fmt.Errorf("store: v4 section %d at [%d,+%d), want [%d,+%d)", i, off, length, want.sections[i].off, want.sections[i].len)
		}
	}
	h.sections = want.sections
	if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		return nil, fmt.Errorf("store: v4 buffer is not 8-byte aligned")
	}
	sec := func(i int) []byte {
		s := h.sections[i]
		return data[s.off : s.off+s.len]
	}

	m := newMapping(data, unmap)
	mt := &mappedTerms{
		m:      m,
		n:      int(h.nTerms),
		offs:   viewUint64(sec(v4SecOffTable)),
		heap:   sec(v4SecTermHeap),
		sorted: viewIDs(sec(v4SecSortedIDs)),
	}
	if mt.offs[0] != 0 || mt.offs[h.nTerms] != h.heapLen {
		return nil, fmt.Errorf("store: v4 term offset table spans [%d, %d), want [0, %d)", mt.offs[0], mt.offs[h.nTerms], h.heapLen)
	}
	s := &Store{
		dict:   dict.NewOver(mt),
		n:      int(h.nTriples),
		mapped: m,
		sdir:   new(subjectDir), // built on first use: the open stays O(1)
	}
	for o := order(0); o < numOrders; o++ {
		s.idx[o] = viewTriples(sec(int(o)))
	}
	// Statistics blocks: O(#preds + #classes) assembly, views for members.
	s.pstats = make(map[dict.ID]PredStats, h.nPreds)
	pb := sec(v4SecPredStats)
	for i := uint64(0); i < h.nPreds; i++ {
		rec := pb[i*16:]
		s.pstats[dict.ID(binary.LittleEndian.Uint32(rec[0:4]))] = PredStats{
			Count:     int(binary.LittleEndian.Uint32(rec[4:8])),
			DistinctS: int(binary.LittleEndian.Uint32(rec[8:12])),
			DistinctO: int(binary.LittleEndian.Uint32(rec[12:16])),
		}
	}
	members := viewIDs(sec(v4SecTypeMembers))
	s.typeIdx = make(map[dict.ID][]dict.ID, h.nClasses)
	cb := sec(v4SecClassTable)
	for i := uint64(0); i < h.nClasses; i++ {
		rec := cb[i*12:]
		class := dict.ID(binary.LittleEndian.Uint32(rec[0:4]))
		start := uint64(binary.LittleEndian.Uint32(rec[4:8]))
		count := uint64(binary.LittleEndian.Uint32(rec[8:12]))
		if start+count > h.nTypeMembers {
			return nil, fmt.Errorf("store: v4 class %d members [%d,+%d) outside %d", class, start, count, h.nTypeMembers)
		}
		s.typeIdx[class] = members[start : start+count]
	}
	s.typeID = dict.ID(h.typeID)
	return s, nil
}

// readV4Heap is the fully-validating path behind ReadSnapshot: the v4
// image is structurally validated like OpenMapped, then its triple stream
// and dictionary are checked in full — SPO strictly increasing
// (duplicates rejected), every id in [1, nTerms], every term record
// parseable and distinct — and a plain heap store is rebuilt through the
// standard construction path. Statistics and the other five index sections
// of the file are not trusted at all: they are recomputed from scratch.
func readV4Heap(data []byte) (*Store, error) {
	ms, err := OpenMappedBytes(data)
	if err != nil {
		return nil, err
	}
	base := ms.dict.Base().(*mappedTerms)
	nTerms := uint64(base.Len())
	d := dict.NewWithCapacity(int(min(nTerms, maxSnapshotPrealloc)))
	for i := uint64(0); i < nTerms; i++ {
		t, ok := base.TryDecode(dict.ID(i + 1))
		if !ok {
			return nil, fmt.Errorf("store: v4 term %d is corrupt", i+1)
		}
		if len(t.Value)+len(t.Lang)+len(t.Datatype) > maxSnapshotStr {
			return nil, fmt.Errorf("store: v4 term %d exceeds the %d-byte limit", i+1, maxSnapshotStr)
		}
		if got := d.Encode(t); uint64(got) != i+1 {
			return nil, fmt.Errorf("store: snapshot term %d duplicates term %d", i+1, got)
		}
	}
	spo := ms.idx[orderSPO]
	triples := make([]IDTriple, len(spo))
	for i, t := range spo {
		if uint64(t.S) == 0 || uint64(t.S) > nTerms || uint64(t.P) == 0 || uint64(t.P) > nTerms || uint64(t.O) == 0 || uint64(t.O) > nTerms {
			return nil, fmt.Errorf("store: triple %d references term ids (%d %d %d) outside [1, %d]", i, t.S, t.P, t.O, nTerms)
		}
		if i > 0 && !lessByOrder(spo[i-1], t, orderSPO) {
			return nil, fmt.Errorf("store: v4 SPO index not strictly increasing at triple %d", i)
		}
		triples[i] = t
	}
	return buildIndexes(d, triples), nil
}
