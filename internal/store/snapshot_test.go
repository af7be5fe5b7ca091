package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

func TestSnapshotRoundTrip(t *testing.T) {
	st, ids := buildTestStore(t)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != st.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), st.Len())
	}
	if got.Dict().Len() != st.Dict().Len() {
		t.Fatalf("dict len = %d, want %d", got.Dict().Len(), st.Dict().Len())
	}
	// All patterns answer identically.
	pats := []Pattern{
		{},
		{S: ids["s1"]},
		{P: ids["knows"]},
		{O: ids["s3"]},
		{S: ids["s1"], P: ids["knows"]},
		{P: ids["knows"], O: ids["s3"]},
	}
	for _, p := range pats {
		if got.Count(p) != st.Count(p) {
			t.Fatalf("Count(%v): %d vs %d", p, got.Count(p), st.Count(p))
		}
	}
	// Dictionary IDs must be preserved exactly (same insertion order).
	for name, id := range ids {
		term := rdf.NewIRI("http://x/" + name)
		gotID, ok := got.Dict().Lookup(term)
		if !ok || gotID != id {
			t.Fatalf("term %s: id %d vs %d", name, gotID, id)
		}
	}
	// Predicate statistics are rebuilt identically.
	if got.PredicateStats(ids["knows"]) != st.PredicateStats(ids["knows"]) {
		t.Fatal("predicate stats differ after round trip")
	}
	// Type index too.
	if len(got.SubjectsOfClass(ids["Person"])) != len(st.SubjectsOfClass(ids["Person"])) {
		t.Fatal("type index differs after round trip")
	}
}

func TestSnapshotAllTermKinds(t *testing.T) {
	b := NewBuilder()
	s := rdf.NewIRI("http://x/s")
	p := rdf.NewIRI("http://x/p")
	objs := []rdf.Term{
		rdf.NewLiteral("plain"),
		rdf.NewLangLiteral("hallo", "de"),
		rdf.NewTypedLiteral("7", rdf.XSDInteger),
		rdf.NewBlank("b1"),
		rdf.NewLiteral("unicode ✓ and \"quotes\"\n"),
	}
	for _, o := range objs {
		if err := b.Add(rdf.NewTriple(s, p, o)); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Build()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		id, ok := got.Dict().Lookup(o)
		if !ok {
			t.Fatalf("term %v lost in round trip", o)
		}
		if got.Dict().Decode(id) != o {
			t.Fatalf("term %v corrupted", o)
		}
	}
}

func TestSnapshotErrors(t *testing.T) {
	// Bad magic.
	if _, err := ReadSnapshot(strings.NewReader("NOTASNAP????")); err == nil {
		t.Fatal("bad magic should fail")
	}
	// Truncated, in the written format and in the read-only v2.
	st, _ := buildTestStore(t)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, full := range [][]byte{buf.Bytes(), fixture(t, "v2")} {
		for _, cut := range []int{5, 9, 20, len(full) - 4} {
			if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("truncation of %q at %d should fail", full[:8], cut)
			}
		}
	}
	// Corrupt a v2 triple's term ID to an out-of-range value.
	corrupt := fixture(t, "v2")
	corrupt[len(corrupt)-1] = 0xFF
	corrupt[len(corrupt)-2] = 0xFF
	corrupt[len(corrupt)-3] = 0xFF
	corrupt[len(corrupt)-4] = 0xFF
	if _, err := ReadSnapshot(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("invalid term id should fail")
	}
}

// fixture returns a checked-in snapshot in a read-only format, written
// by the last version of this package that still wrote it:
// testdata/v1.snap, v2.snap and v3.snap hold buildTestStore's data, and
// v3-overlay.snap the overlay TestSnapshotV3RoundTrip rebuilds.
func fixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotV1StillLoads: v1, v2 and (plain) v3 snapshots load into a
// store identical to the same data built in process.
func TestSnapshotV1StillLoads(t *testing.T) {
	built, ids := buildTestStore(t)
	pats := []Pattern{{}, {S: ids["s1"]}, {P: ids["knows"]}, {O: ids["s3"]}, {P: ids["knows"], O: ids["s3"]}}
	for _, name := range []string{"v1", "v2", "v3"} {
		st, err := ReadSnapshot(bytes.NewReader(fixture(t, name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Delta() != nil {
			t.Fatalf("%s: a plain snapshot loaded as an overlay", name)
		}
		if st.Len() != built.Len() || st.Dict().Len() != built.Dict().Len() {
			t.Fatalf("%s: size mismatch after load", name)
		}
		for _, p := range pats {
			if st.Count(p) != built.Count(p) {
				t.Fatalf("%s: Count(%v) differs", name, p)
			}
		}
		equalStoreSurface(t, built, st)
	}
}

// TestSnapshotV2Smaller: delta+varint triples make v2 measurably smaller
// than v1 on the same data, and both load into the same store.
func TestSnapshotV2Smaller(t *testing.T) {
	built, _ := buildTestStore(t)
	v1, v2 := fixture(t, "v1"), fixture(t, "v2")
	if len(v2) >= len(v1) {
		t.Fatalf("v2 (%d bytes) not smaller than v1 (%d bytes)", len(v2), len(v1))
	}
	got, err := ReadSnapshot(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	equalStores(t, built, got) // indexes identical too
}

// TestSnapshotRejectsHugeCounts: headers claiming absurd term/triple counts
// must fail with an error (when the stream runs dry), not allocate
// gigabytes up front. The fixtures end immediately after the header.
func TestSnapshotRejectsHugeCounts(t *testing.T) {
	// v1: 4G terms, 4G triples, empty body.
	v1 := []byte(snapshotMagicV1)
	v1 = append(v1, 0xFF, 0xFF, 0xFF, 0xFF) // nTerms
	v1 = append(v1, 0xFF, 0xFF, 0xFF, 0xFF) // nTriples
	if _, err := ReadSnapshot(bytes.NewReader(v1)); err == nil {
		t.Fatal("v1 huge header should fail")
	}
	// v2: uvarint counts beyond the 32-bit id space are rejected outright.
	v2 := []byte(snapshotMagicV2)
	v2 = binary.AppendUvarint(v2, 1<<40)
	v2 = binary.AppendUvarint(v2, 1<<40)
	if _, err := ReadSnapshot(bytes.NewReader(v2)); err == nil {
		t.Fatal("v2 huge header should fail")
	}
	// v2: plausible counts but an empty body still errors cleanly.
	v2 = []byte(snapshotMagicV2)
	v2 = binary.AppendUvarint(v2, 1<<30)
	v2 = binary.AppendUvarint(v2, 1<<30)
	if _, err := ReadSnapshot(bytes.NewReader(v2)); err == nil {
		t.Fatal("v2 truncated-after-header should fail")
	}
}

// TestSnapshotRejectsDuplicateTriples: duplicate triples would produce a
// store whose Len/Count/pstats disagree with any Builder-built store.
func TestSnapshotRejectsDuplicateTriples(t *testing.T) {
	st, _ := buildTestStore(t)
	// v1: append a copy of the last triple and patch the triple count.
	v1 := fixture(t, "v1")
	v1 = append(v1, v1[len(v1)-12:]...)
	binary.LittleEndian.PutUint32(v1[12:16], uint32(st.Len()+1))
	if _, err := ReadSnapshot(bytes.NewReader(v1)); err == nil {
		t.Fatal("v1 duplicate triple should fail")
	}
	// v2: an all-zero delta record encodes "same triple again".
	raw := append(fixture(t, "v2"), 0, 0, 0)
	// Patch the uvarint triple count: re-encode the whole prefix instead of
	// poking bytes — counts this small are single-byte uvarints.
	if st.Len() >= 127 {
		t.Fatal("fixture store grew; rewrite the uvarint patch")
	}
	idx := len(snapshotMagicV2)
	termCount, n := binary.Uvarint(raw[idx:])
	if n <= 0 || termCount == 0 {
		t.Fatal("cannot parse term count")
	}
	cntIdx := idx + n
	tripCount, n2 := binary.Uvarint(raw[cntIdx:])
	if n2 != 1 || int(tripCount) != st.Len() {
		t.Fatalf("unexpected triple count encoding (%d bytes, %d)", n2, tripCount)
	}
	raw[cntIdx] = byte(st.Len() + 1)
	if _, err := ReadSnapshot(bytes.NewReader(raw)); err == nil {
		t.Fatal("v2 duplicate triple should fail")
	}
}

// TestSnapshotV2Truncated: cutting a v2 stream at any point must produce a
// clean error.
func TestSnapshotV2Truncated(t *testing.T) {
	full := fixture(t, "v2")
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d should fail", cut)
		}
	}
}

// TestSnapshotBadVersionArg: v4 is the only version written; the
// read-only versions and unknown ones are refused.
func TestSnapshotBadVersionArg(t *testing.T) {
	st, _ := buildTestStore(t)
	for _, v := range []int{1, 2, 3, 5} {
		var buf bytes.Buffer
		if err := st.WriteSnapshotVersion(&buf, v); err == nil {
			t.Fatalf("writing snapshot version %d should fail", v)
		}
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshotVersion(&buf, 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(snapshotMagicV4)) {
		t.Fatalf("version 4 wrote magic %q", buf.Bytes()[:8])
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	st := NewBuilder().Build()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Dict().Len() != 0 {
		t.Fatal("empty store round trip not empty")
	}
	if got.Count(Pattern{}) != 0 {
		t.Fatal("empty store should count 0")
	}
	_ = dict.None
}
