package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
)

func TestLoadAnyAutoDetect(t *testing.T) {
	dir := t.TempDir()

	ntPath := filepath.Join(dir, "data.nt")
	nt := `<http://x/a> <http://x/p> <http://x/b> .
<http://x/b> <http://x/p> <http://x/c> .
`
	if err := os.WriteFile(ntPath, []byte(nt), 0o644); err != nil {
		t.Fatal(err)
	}
	fromNT, err := LoadAny(ntPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromNT.Len() != 2 {
		t.Fatalf("nt: %d triples", fromNT.Len())
	}

	// A v4 snapshot loads by magic.
	v4 := filepath.Join(dir, "data.snap")
	f, err := os.Create(v4)
	if err != nil {
		t.Fatal(err)
	}
	if err := fromNT.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fromSnap, err := LoadAny(v4)
	if err != nil {
		t.Fatalf("v4: %v", err)
	}
	pid, ok := fromSnap.Dict().Lookup(rdf.NewIRI("http://x/p"))
	if fromSnap.Len() != fromNT.Len() || !ok || fromSnap.Count(Pattern{P: pid}) != 2 {
		t.Fatalf("v4: %d triples, predicate lookup ok=%v", fromSnap.Len(), ok)
	}

	if _, err := LoadAny(filepath.Join(dir, "missing.nt")); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(dir, "bad.nt")
	if err := os.WriteFile(bad, []byte("not ntriples at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAny(bad); err == nil {
		t.Fatal("malformed N-Triples must error")
	}
}

// errAfterReader yields its payload, then fails with err instead of EOF.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// The format sniff used to swallow every ReadFull error, so a reader that
// failed with a real I/O error inside the first 8 bytes fell through to
// the N-Triples parser and surfaced as a bogus parse error (or, for an
// empty prefix, as a silently empty store).
func TestLoadAnyReaderPropagatesSniffError(t *testing.T) {
	sentinel := errors.New("disk on fire")
	for _, prefix := range [][]byte{nil, []byte("<ht")} {
		_, err := LoadAnyReader(&errAfterReader{data: prefix, err: sentinel})
		if !errors.Is(err, sentinel) {
			t.Fatalf("prefix %q: err = %v, want the sniff's I/O error", prefix, err)
		}
	}
}

// Short and empty inputs are still legal N-Triples, not errors.
func TestLoadAnyReaderShortInput(t *testing.T) {
	for _, in := range []string{"", "\n", "# c\n"} {
		st, err := LoadAnyReader(&errAfterReader{data: []byte(in), err: io.EOF})
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if st.Len() != 0 {
			t.Fatalf("%q: %d triples", in, st.Len())
		}
	}
}

// LoadAnyMapped sniffs and serves from a single file descriptor: a v4
// snapshot comes back mapped, everything else heap-loaded, and the
// mapping must survive the sniff fd being closed (LoadAnyMapped closes
// its *os.File before returning).
func TestLoadAnyMappedSingleFd(t *testing.T) {
	dir := t.TempDir()
	b := NewBuilder()
	if err := b.Add(rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/b"))); err != nil {
		t.Fatal(err)
	}
	st := b.Build()

	v4 := filepath.Join(dir, "data.v4.snap")
	f, err := os.Create(v4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadAnyMapped(v4)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Backend() != "mapped" {
		t.Fatalf("v4 backend = %q, want mapped", mapped.Backend())
	}
	if mapped.Len() != 1 {
		t.Fatalf("v4: %d triples", mapped.Len())
	}
	// Read through the mapping after the open fd is long gone.
	if got, _ := mapped.Match(Pattern{}); len(got) != 1 {
		t.Fatalf("mapped match: %d triples", len(got))
	}
	if m := mapped.Mapping(); m != nil {
		m.Release()
	}

	nt := filepath.Join(dir, "data.nt")
	if err := os.WriteFile(nt, []byte("<http://x/a> <http://x/p> <http://x/b> .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	heap, err := LoadAnyMapped(nt)
	if err != nil {
		t.Fatal(err)
	}
	if heap.Backend() != "heap" || heap.Len() != 1 {
		t.Fatalf("nt fallback: backend %q, %d triples", heap.Backend(), heap.Len())
	}

	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAnyMapped(short); err == nil {
		t.Fatal("1-byte non-N-Triples input must error")
	}
}
