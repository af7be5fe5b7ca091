package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// v4Image serializes st in the v4 format.
func v4Image(t testing.TB, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// equalStoreSurface compares every observable surface of two stores that
// do NOT share a dictionary struct (unlike equalStores, which compares
// raw index slices): lengths, per-order index contents, statistics, the
// type index, and term resolution in both directions.
func equalStoreSurface(t *testing.T, want, got *Store) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("Len %d vs %d", want.Len(), got.Len())
	}
	if want.dict.Len() != got.dict.Len() {
		t.Fatalf("dict Len %d vs %d", want.dict.Len(), got.dict.Len())
	}
	for id := dict.ID(1); int(id) <= want.dict.Len(); id++ {
		wt := want.dict.Decode(id)
		gt, ok := got.dict.TryDecode(id)
		if !ok || wt != gt {
			t.Fatalf("term %d: %v vs %v (ok=%v)", id, wt, gt, ok)
		}
		if back, ok := got.dict.Lookup(wt); !ok || back != id {
			t.Fatalf("term %d round trip via Lookup: got %d (ok=%v)", id, back, ok)
		}
	}
	for o := order(0); o < numOrders; o++ {
		x, _ := want.Match(patternAll(o))
		y, _ := got.Match(patternAll(o))
		if len(x) != len(y) {
			t.Fatalf("order %v: %d vs %d triples", o, len(x), len(y))
		}
	}
	wx, _ := want.Match(Pattern{})
	gx, _ := got.Match(Pattern{})
	for i := range wx {
		if wx[i] != gx[i] {
			t.Fatalf("SPO diverges at %d: %v vs %v", i, wx[i], gx[i])
		}
	}
	wp, gp := want.Predicates(), got.Predicates()
	if len(wp) != len(gp) {
		t.Fatalf("predicate count %d vs %d", len(wp), len(gp))
	}
	for i, p := range wp {
		if gp[i] != p {
			t.Fatalf("predicate %d: %d vs %d", i, p, gp[i])
		}
		if want.PredicateStats(p) != got.PredicateStats(p) {
			t.Fatalf("pstats[%d]: %+v vs %+v", p, want.PredicateStats(p), got.PredicateStats(p))
		}
	}
	if want.typeID != got.typeID {
		t.Fatalf("typeID %d vs %d", want.typeID, got.typeID)
	}
	if len(want.typeIdx) != len(got.typeIdx) {
		t.Fatalf("typeIdx size %d vs %d", len(want.typeIdx), len(got.typeIdx))
	}
	for c, xs := range want.typeIdx {
		ys := got.SubjectsOfClass(c)
		if len(xs) != len(ys) {
			t.Fatalf("class %d: %d vs %d members", c, len(xs), len(ys))
		}
		for i := range xs {
			if xs[i] != ys[i] {
				t.Fatalf("class %d member %d: %d vs %d", c, i, xs[i], ys[i])
			}
		}
	}
	// Spot-check bound patterns across both backings.
	for _, pat := range boundPatterns(want) {
		if a, b := want.Count(pat), got.Count(pat); a != b {
			t.Fatalf("Count(%v): %d vs %d", pat, a, b)
		}
		am, _ := want.Match(pat)
		bm, _ := got.Match(pat)
		if len(am) != len(bm) {
			t.Fatalf("Match(%v): %d vs %d", pat, len(am), len(bm))
		}
		for i := range am {
			if am[i] != bm[i] {
				t.Fatalf("Match(%v) diverges at %d", pat, i)
			}
		}
	}
}

func patternAll(o order) Pattern { return Pattern{} }

// boundPatterns derives a set of patterns with every bound-mask shape from
// the store's own first triple and predicates.
func boundPatterns(s *Store) []Pattern {
	all, _ := s.Match(Pattern{})
	if len(all) == 0 {
		return nil
	}
	tr := all[len(all)/2]
	return []Pattern{
		{S: tr.S}, {P: tr.P}, {O: tr.O},
		{S: tr.S, P: tr.P}, {P: tr.P, O: tr.O}, {S: tr.S, O: tr.O},
		{S: tr.S, P: tr.P, O: tr.O},
		{S: tr.S + 1000000}, // absent
	}
}

func TestSnapshotV4RoundTripMapped(t *testing.T) {
	st := randomBuilder(3, 500).Build()
	img := v4Image(t, st)
	mapped, err := OpenMappedBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Backend() != "mapped" {
		t.Fatalf("Backend = %q, want mapped", mapped.Backend())
	}
	if mapped.MappedBytes() != len(img) {
		t.Fatalf("MappedBytes = %d, want %d", mapped.MappedBytes(), len(img))
	}
	if st.Backend() != "heap" || st.MappedBytes() != 0 {
		t.Fatalf("heap store reports %q/%d", st.Backend(), st.MappedBytes())
	}
	equalStoreSurface(t, st, mapped)
}

func TestSnapshotV4ReadSnapshotRebuildsHeap(t *testing.T) {
	st := randomBuilder(4, 300).Build()
	img := v4Image(t, st)
	heap, err := ReadSnapshot(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if heap.Backend() != "heap" {
		t.Fatalf("ReadSnapshot of v4 gave backend %q, want heap", heap.Backend())
	}
	equalStoreSurface(t, st, heap)
}

func TestSnapshotV4FoldsOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := randomBuilder(5, 300).Build()
	all, _ := base.Match(Pattern{})
	var dels []rdf.Triple
	for i := 0; i < 20; i++ {
		tr := all[rng.Intn(len(all))]
		d := base.Dict()
		dels = append(dels, rdf.NewTriple(d.Decode(tr.S), d.Decode(tr.P), d.Decode(tr.O)))
	}
	d, err := base.NewDelta().Apply(randomTriples(rng, 25), dels)
	if err != nil {
		t.Fatal(err)
	}
	ov := d.Overlay()
	img := v4Image(t, ov)
	mapped, err := OpenMappedBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	// The v4 file folds the delta: it must equal the committed store.
	equalStoreSurface(t, d.Commit(), mapped)
	if mapped.Delta() != nil {
		t.Fatal("v4 open produced an overlay store")
	}
}

func TestSnapshotV4EmptyStore(t *testing.T) {
	st := NewBuilder().Build()
	img := v4Image(t, st)
	mapped, err := OpenMappedBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Len() != 0 || mapped.Dict().Len() != 0 {
		t.Fatalf("empty store round trip: %d triples, %d terms", mapped.Len(), mapped.Dict().Len())
	}
}

func TestOpenMappedFile(t *testing.T) {
	st := randomBuilder(6, 200).Build()
	path := filepath.Join(t.TempDir(), "snap.v4")
	if err := os.WriteFile(path, v4Image(t, st), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	m := mapped.Mapping()
	if m == nil || m.Refs() != 1 {
		t.Fatalf("mapping refs = %v", m)
	}
	equalStoreSurface(t, st, mapped)
	m.Release()
	if m.Retain() {
		t.Fatal("Retain succeeded after full release")
	}
}

func TestLoadAnyMapped(t *testing.T) {
	st, _ := buildTestStore(t)
	v4path := filepath.Join(t.TempDir(), "snap.v4")
	if err := os.WriteFile(v4path, v4Image(t, st), 0o644); err != nil {
		t.Fatal(err)
	}
	m4, err := LoadAnyMapped(v4path)
	if err != nil {
		t.Fatal(err)
	}
	if m4.Backend() != "mapped" {
		t.Fatalf("v4 via LoadAnyMapped: backend %q", m4.Backend())
	}
	equalStoreSurface(t, st, m4)
	if m := m4.Mapping(); m != nil {
		m.Release()
	}
}

// TestSnapshotV4DeltaOverMapped is the update path over a mapped base:
// fresh terms get tail ids identical to the heap twin's, overlays and
// commits stay bit-identical across backings, and both keep reporting the
// base mapping.
func TestSnapshotV4DeltaOverMapped(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	heapBase := randomBuilder(8, 300).Build()
	mappedBase, err := OpenMappedBytes(v4Image(t, heapBase))
	if err != nil {
		t.Fatal(err)
	}
	ins := randomTriples(rng, 30)
	all, _ := heapBase.Match(Pattern{})
	var dels []rdf.Triple
	d := heapBase.Dict()
	for i := 0; i < 10; i++ {
		tr := all[rng.Intn(len(all))]
		dels = append(dels, rdf.NewTriple(d.Decode(tr.S), d.Decode(tr.P), d.Decode(tr.O)))
	}
	dh, err := heapBase.NewDelta().Apply(ins, dels)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := mappedBase.NewDelta().Apply(ins, dels)
	if err != nil {
		t.Fatal(err)
	}
	ovh, ovm := dh.Overlay(), dm.Overlay()
	if ovm.Backend() != "mapped" || ovm.Mapping() == nil {
		t.Fatalf("overlay over mapped base reports %q", ovm.Backend())
	}
	equalStoreSurface(t, ovh, ovm)
	ch, cm := dh.Commit(), dm.Commit()
	if cm.Backend() != "heap" {
		t.Fatalf("committed store backend %q, want heap", cm.Backend())
	}
	if cm.Mapping() == nil {
		t.Fatal("committed store over mapped dictionary lost the mapping")
	}
	equalStoreSurface(t, ch, cm)
}

// corruptV4 returns a mutated copy of img.
func corruptV4(img []byte, mutate func([]byte)) []byte {
	cp := append([]byte(nil), img...)
	mutate(cp)
	return cp
}

func TestOpenMappedRejectsCorrupt(t *testing.T) {
	st := randomBuilder(11, 120).Build()
	img := v4Image(t, st)
	le32 := func(b []byte, at int, v uint32) {
		b[at] = byte(v)
		b[at+1] = byte(v >> 8)
		b[at+2] = byte(v >> 16)
		b[at+3] = byte(v >> 24)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"short header":   img[:100],
		"truncated page": img[:len(img)-v4PageSize/2],
		"truncated section": img[:v4Align(uint64(v4PageSize+10))- // mid second section
			v4PageSize/2],
		"bad magic":     corruptV4(img, func(b []byte) { b[7] = '9' }),
		"bad page size": corruptV4(img, func(b []byte) { le32(b, 8, 512) }),
		"huge triple count": corruptV4(img, func(b []byte) {
			b[16], b[17], b[18], b[19], b[20] = 0xff, 0xff, 0xff, 0xff, 0x01
		}),
		// Out-of-range section offset: point section 0 past EOF.
		"section offset out of range": corruptV4(img, func(b []byte) { le32(b, 72, uint32(len(img))+v4PageSize) }),
		// Overlapping runs: make section 1 alias section 0.
		"overlapping sections": corruptV4(img, func(b []byte) { copy(b[72+16:72+32], b[72:72+16]) }),
		"file size mismatch":   corruptV4(img, func(b []byte) { le32(b, 64, uint32(len(img))+v4PageSize) }),
		"appended garbage":     append(append([]byte(nil), img...), make([]byte, v4PageSize)...),
		"type id out of range": corruptV4(img, func(b []byte) { le32(b, 12, 1<<30) }),
	}
	for name, data := range cases {
		if _, err := OpenMappedBytes(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadSnapshot accepted", name)
		}
	}
}

// TestOpenMappedHardenedAccessors corrupts interior section data that the
// O(1) open cannot see: the mapped store must stay safe (TryDecode fails,
// Lookup misses, no panics) and the fully-validating ReadSnapshot path
// must reject the same bytes.
func TestOpenMappedHardenedAccessors(t *testing.T) {
	st := randomBuilder(12, 120).Build()
	img := v4Image(t, st)
	// Locate the term offset table and heap sections from the header.
	secOff := func(i int) (uint64, uint64) {
		at := 72 + i*16
		off := uint64(0)
		length := uint64(0)
		for j := 7; j >= 0; j-- {
			off = off<<8 | uint64(img[at+j])
			length = length<<8 | uint64(img[at+8+j])
		}
		return off, length
	}
	offTab, _ := secOff(v4SecOffTable)
	heapOff, heapLen := secOff(v4SecTermHeap)

	t.Run("offset table out of range", func(t *testing.T) {
		bad := corruptV4(img, func(b []byte) {
			// Second entry jumps past the heap: record 1 becomes invalid.
			at := int(offTab) + 8
			v := heapLen + 1000
			for j := 0; j < 8; j++ {
				b[at+j] = byte(v >> (8 * j))
			}
		})
		ms, err := OpenMappedBytes(bad)
		if err != nil {
			t.Fatal(err) // O(1) open cannot see interior corruption
		}
		if _, ok := ms.Dict().TryDecode(1); ok {
			t.Fatal("TryDecode succeeded over corrupt offset")
		}
		// Every surface stays panic-free.
		ms.Dict().Lookup(rdf.NewIRI("http://nope/"))
		ms.Match(Pattern{})
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("ReadSnapshot accepted corrupt offset table")
		}
	})
	t.Run("corrupt term record", func(t *testing.T) {
		bad := corruptV4(img, func(b []byte) { b[heapOff] = 0xff }) // invalid kind
		ms, err := OpenMappedBytes(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ms.Dict().TryDecode(1); ok {
			t.Fatal("TryDecode succeeded over corrupt record")
		}
		ms.Dict().Lookup(rdf.NewIRI("http://nope/"))
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("ReadSnapshot accepted corrupt term record")
		}
	})
	t.Run("corrupt record in the render table", func(t *testing.T) {
		// The JSON render table is built over a mid-heap record with an
		// invalid kind: that id still renders as invalid, every other id
		// exactly as the intact store renders it.
		n := st.Dict().Len()
		bad := dict.ID(n / 2)
		rec := heapOff + binary.LittleEndian.Uint64(img[offTab+8*uint64(bad-1):])
		ms, err := OpenMappedBytes(corruptV4(img, func(b []byte) { b[rec] = 0xff }))
		if err != nil {
			t.Fatal(err)
		}
		for id := dict.ID(1); int(id) <= n; id++ {
			got, ok := ms.Dict().AppendTerm([]byte("x"), id, rdf.JSON)
			if id == bad {
				if ok || string(got) != "x" {
					t.Fatalf("corrupt record %d rendered %q, %v", id, got, ok)
				}
				continue
			}
			want := st.Dict().Decode(id).Append([]byte("x"), rdf.JSON)
			if !ok || string(got) != string(want) {
				t.Fatalf("AppendTerm(%d) = %q, %v; want %q", id, got, ok, want)
			}
		}
		if ms.Dict().RenderTableBytes() == 0 {
			t.Fatal("no render table was built")
		}
	})
}

func TestOpenMappedBytesUnaligned(t *testing.T) {
	st := randomBuilder(13, 80).Build()
	img := v4Image(t, st)
	backing := make([]byte, len(img)+1)
	copy(backing[1:], img)
	mapped, err := OpenMappedBytes(backing[1:]) // misaligned base pointer
	if err != nil {
		t.Fatal(err)
	}
	equalStoreSurface(t, st, mapped)
}

// TestOpenMappedConstantWork asserts the O(1) property: opening a snapshot
// with 8x the triples must not allocate more (stats parsing is bounded by
// the vocabulary, which randomBuilder keeps fixed).
func TestOpenMappedConstantWork(t *testing.T) {
	small := v4Image(t, randomBuilder(14, 2000).Build())
	large := v4Image(t, randomBuilder(14, 16000).Build())
	measure := func(img []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := OpenMappedBytes(img); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := measure(small), measure(large)
	if b > a*1.5+16 {
		t.Fatalf("open allocations grow with triple count: %v (n=2000) vs %v (n=16000)", a, b)
	}
}

// TestOpenMappedFasterThanHeapLoad pins the headline property with a wide
// safety margin (the benchmarks measure the real ratio, typically far over
// the 50x acceptance line): mapped open of a 50k-triple snapshot must beat
// the full heap load of the same image by at least 10x, min-of-trials.
func TestOpenMappedFasterThanHeapLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	st := randomBuilder(15, 50000).Build()
	img4 := v4Image(t, st)
	best := func(f func()) time.Duration {
		b := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	open := best(func() {
		if _, err := OpenMappedBytes(img4); err != nil {
			t.Fatal(err)
		}
	})
	load := best(func() {
		if _, err := ReadSnapshot(bytes.NewReader(img4)); err != nil {
			t.Fatal(err)
		}
	})
	if open*10 > load {
		t.Fatalf("mapped open %v not >=10x faster than heap load %v", open, load)
	}
}

// residentBytes measures the live-heap growth of holding one loaded store:
// GC before and after the load and report the HeapAlloc delta. For a heap
// deserialization this is roughly the six indexes plus the dictionary; for
// an mmap-backed open it stays near zero because the indexes remain in the
// file mapping.
func residentBytes(load func() *Store) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := load()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	return max(0, float64(after.HeapAlloc)-float64(before.HeapAlloc))
}

// BenchmarkSnapshotV4Open opens a v4 snapshot of BenchmarkSearchRange's
// store (about 200k triples) through the OS file mapping: O(1) in triple
// count (header validation plus six slice reinterpretations, no index
// deserialization), with
// resident-bytes near zero because the indexes are served from the
// mapping. heap-resident-bytes is the same file deserialized by
// ReadSnapshot, for scale.
func BenchmarkSnapshotV4Open(b *testing.B) {
	st, _ := overlayWorld(b, 3, 200_000)
	path := filepath.Join(b.TempDir(), "bench.v4.snap")
	if err := os.WriteFile(path, v4Image(b, st), 0o644); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	open := func() *Store {
		mapped, err := OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		if mapped.Len() != st.Len() {
			b.Fatal("mapped open lost triples")
		}
		return mapped
	}
	b.SetBytes(fi.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		open().Mapping().Release()
	}
	b.StopTimer()
	b.ReportMetric(float64(fi.Size()), "snapshot-bytes")
	b.ReportMetric(residentBytes(open), "resident-bytes")
	b.ReportMetric(residentBytes(func() *Store {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		heap, err := ReadSnapshot(f)
		if err != nil {
			b.Fatal(err)
		}
		return heap
	}), "heap-resident-bytes")
}

// FuzzOpenMapped drives the O(1) mapped open (and the fully-validating
// streaming path over the same bytes) with arbitrary input: neither may
// panic, every surface of an accepted mapped store must be safe to touch,
// and when the strict reader also accepts, the two must agree.
func FuzzOpenMapped(f *testing.F) {
	st := randomBuilder(16, 60).Build()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:v4PageSize])
	f.Add(corruptV4(img, func(b []byte) { b[72] ^= 0xff }))
	f.Add(corruptV4(img, func(b []byte) { b[v4PageSize+5] ^= 0xff }))
	f.Add(corruptV4(img, func(b []byte) { b[len(b)-3] ^= 0xff }))
	f.Add([]byte(snapshotMagicV4))
	// An SPO section the O(1) open cannot check: subjects past the
	// dictionary at both ends of the run, and two triples out of order.
	// The subject directory derived from it must keep every probe in
	// bounds.
	f.Add(corruptV4(img, func(b []byte) {
		spo := binary.LittleEndian.Uint64(b[72:])
		at := func(i int) []byte { return b[spo+uint64(i)*idTripleBytes:] }
		binary.LittleEndian.PutUint32(at(0), binary.LittleEndian.Uint32(b[24:])+3)
		binary.LittleEndian.PutUint32(at(st.Len()-1), math.MaxUint32)
		var tmp [idTripleBytes]byte
		copy(tmp[:], at(1))
		copy(at(1)[:idTripleBytes], at(st.Len()/2))
		copy(at(st.Len()/2), tmp[:])
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := OpenMappedBytes(data)
		if err != nil {
			return
		}
		// Touch every hardened surface.
		n := ms.Dict().Len()
		for id := 1; id <= n && id <= 512; id++ {
			if term, ok := ms.Dict().TryDecode(dict.ID(id)); ok {
				ms.Dict().Lookup(term)
			}
		}
		matches, _ := ms.Match(Pattern{})
		if len(matches) != ms.Len() {
			t.Fatalf("mapped store inconsistent: Len %d but %d matches", ms.Len(), len(matches))
		}
		pats := append(boundPatterns(ms), Pattern{S: dict.ID(n + 1)}, Pattern{S: math.MaxUint32})
		if len(matches) > 0 {
			first, last := matches[0], matches[len(matches)-1]
			pats = append(pats, Pattern{S: first.S}, Pattern{S: first.S, P: first.P}, Pattern{S: last.S, O: last.O})
		}
		for _, pat := range pats {
			m, _ := ms.Match(pat)
			if ms.Count(pat) != len(m) {
				t.Fatalf("Count(%v) disagrees with Match", pat)
			}
			if pat.S == dict.None {
				continue
			}
			// Subject-bound reads go through the subject directory: the
			// cursor must deliver exactly what Match does.
			var scanned []IDTriple
			sc := ms.Scan(pat)
			for batch := sc.Next(7); batch != nil; batch = sc.Next(7) {
				scanned = append(scanned, batch...)
			}
			if !equalTriples(scanned, m) {
				t.Fatalf("Scan(%v) disagrees with Match", pat)
			}
		}
		for _, p := range ms.Predicates() {
			ms.PredicateStats(p)
		}
		// The strict reader sees the same bytes; if it accepts, the rebuilt
		// heap store must agree with the mapped view on the triple stream.
		hs, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if hs.Len() != ms.Len() {
			t.Fatalf("heap rebuild Len %d vs mapped %d", hs.Len(), ms.Len())
		}
		hm, _ := hs.Match(Pattern{})
		if !equalTriples(hm, matches) {
			t.Fatal("heap rebuild disagrees with mapped triple stream")
		}
	})
}
