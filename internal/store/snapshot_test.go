package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
	st, _ := buildTestStore(t)
	full := v4Image(t, st)
	// Truncated anywhere: inside the magic, the header page or a section.
	for _, cut := range []int{0, 5, 9, 20, v4PageSize, len(full) - 4} {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d should fail", cut)
		}
	}
	// A triple naming a term id past the dictionary.
	corrupt := corruptV4(full, func(b []byte) {
		last := v4SPO(b, st.Len()-1)
		binary.LittleEndian.PutUint32(last[8:], uint32(st.Dict().Len()+1))
	})
	if _, err := ReadSnapshot(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("invalid term id should fail")
	}
}

// v4SPO returns the i-th triple record of a v4 image's SPO section.
func v4SPO(img []byte, i int) []byte {
	spo := binary.LittleEndian.Uint64(img[72:])
	return img[spo+uint64(i)*idTripleBytes:][:idTripleBytes]
}

// TestSnapshotRejectsHugeCounts: headers claiming absurd term/triple counts
// must fail with an error, not allocate gigabytes up front. The images
// end right after the header page.
func TestSnapshotRejectsHugeCounts(t *testing.T) {
	st, _ := buildTestStore(t)
	header := v4Image(t, st)[:v4PageSize]
	for name, at := range map[string]int{"triples": 16, "terms": 24} {
		huge := corruptV4(header, func(b []byte) { binary.LittleEndian.PutUint64(b[at:], 1<<40) })
		if _, err := ReadSnapshot(bytes.NewReader(huge)); err == nil {
			t.Fatalf("huge %s count should fail", name)
		}
		plausible := corruptV4(header, func(b []byte) { binary.LittleEndian.PutUint64(b[at:], 1<<30) })
		if _, err := ReadSnapshot(bytes.NewReader(plausible)); err == nil {
			t.Fatalf("%s count past the end of the file should fail", name)
		}
	}
}

// TestSnapshotRejectsDuplicateTriples: duplicate triples would produce a
// store whose Len/Count/pstats disagree with any Builder-built store. The
// O(1) mapped open cannot see them; the revalidating heap load must.
func TestSnapshotRejectsDuplicateTriples(t *testing.T) {
	st, _ := buildTestStore(t)
	img := v4Image(t, st)
	dup := corruptV4(img, func(b []byte) { copy(v4SPO(b, 1), v4SPO(b, 0)) })
	if _, err := ReadSnapshot(bytes.NewReader(dup)); err == nil {
		t.Fatal("duplicate triple should fail")
	}
	swapped := corruptV4(img, func(b []byte) {
		var tmp [idTripleBytes]byte
		copy(tmp[:], v4SPO(b, 1))
		copy(v4SPO(b, 1), v4SPO(b, 2))
		copy(v4SPO(b, 2), tmp[:])
	})
	if _, err := ReadSnapshot(bytes.NewReader(swapped)); err == nil {
		t.Fatal("out-of-order triples should fail")
	}
}

// TestSnapshotVersionError: v4 is the only format read. A file in an
// older format — the bare magic, or a whole file its writer produced (the
// seed-v* entries of the FuzzReadSnapshot corpus) — fails with a
// *VersionError naming its version through every load entry point, and
// is never parsed as N-Triples.
func TestSnapshotVersionError(t *testing.T) {
	cases := []struct {
		name    string
		data    []byte
		version int
	}{
		{"v1 magic", []byte("RDFSNAP1"), 1},
		{"v2 magic", []byte("RDFSNAP2"), 2},
		{"v3 magic", []byte("RDFSNAP3"), 3},
		{"v5 magic", []byte("RDFSNAP5 and more"), 5},
		{"v1 file", corpusEntry(t, "seed-v1"), 1},
		{"v2 file", corpusEntry(t, "seed-v2"), 2},
		{"v3 file", corpusEntry(t, "seed-v3"), 3},
		{"v3 overlay file", corpusEntry(t, "seed-v3-overlay"), 3},
	}
	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-"))
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		loads := map[string]func() (*Store, error){
			"ReadSnapshot":  func() (*Store, error) { return ReadSnapshot(bytes.NewReader(c.data)) },
			"LoadAnyReader": func() (*Store, error) { return LoadAnyReader(bytes.NewReader(c.data)) },
			"LoadAny":       func() (*Store, error) { return LoadAny(path) },
			"LoadAnyMapped": func() (*Store, error) { return LoadAnyMapped(path) },
		}
		for entry, load := range loads {
			_, err := load()
			var ve *VersionError
			if !errors.As(err, &ve) || ve.Version != c.version {
				t.Fatalf("%s via %s: err = %v, want a *VersionError for v%d", c.name, entry, err, c.version)
			}
			if want := fmt.Sprintf("v%d", c.version); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "only v4") {
				t.Fatalf("%s via %s: message %q does not name v%d and v4", c.name, entry, err, c.version)
			}
		}
	}
	// A non-digit version byte is a bad magic, not a version.
	_, err := ReadSnapshot(strings.NewReader("RDFSNAPx"))
	var ve *VersionError
	if err == nil || errors.As(err, &ve) {
		t.Fatalf("RDFSNAPx: err = %v, want a bad-magic error", err)
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
