package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
)

// Open detects a file's format from its first bytes.
func TestLoadAnyAutoDetect(t *testing.T) {
	dir := t.TempDir()

	ntPath := filepath.Join(dir, "data.nt")
	nt := `<http://x/a> <http://x/p> <http://x/b> .
<http://x/b> <http://x/p> <http://x/c> .
`
	if err := os.WriteFile(ntPath, []byte(nt), 0o644); err != nil {
		t.Fatal(err)
	}
	fromNT, err := Open(ntPath)
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
	fromSnap, err := Open(v4)
	if err != nil {
		t.Fatalf("v4: %v", err)
	}
	pid, ok := fromSnap.Dict().Lookup(rdf.NewIRI("http://x/p"))
	if fromSnap.Len() != fromNT.Len() || !ok || fromSnap.Count(Pattern{P: pid}) != 2 {
		t.Fatalf("v4: %d triples, predicate lookup ok=%v", fromSnap.Len(), ok)
	}

	if _, err := Open(filepath.Join(dir, "missing.nt")); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(dir, "bad.nt")
	if err := os.WriteFile(bad, []byte("not ntriples at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
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
		_, err := loadAnyReader(&errAfterReader{data: prefix, err: sentinel})
		if !errors.Is(err, sentinel) {
			t.Fatalf("prefix %q: err = %v, want the sniff's I/O error", prefix, err)
		}
	}
}

// Short and empty inputs are still legal N-Triples, not errors.
func TestLoadAnyReaderShortInput(t *testing.T) {
	for _, in := range []string{"", "\n", "# c\n"} {
		st, err := loadAnyReader(&errAfterReader{data: []byte(in), err: io.EOF})
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if st.Len() != 0 {
			t.Fatalf("%q: %d triples", in, st.Len())
		}
	}
}

// Open sniffs and serves from a single file descriptor: a v4 snapshot
// comes back mapped, everything else heap-backed, and the mapping must
// survive the sniff fd being closed (Open closes its *os.File before
// returning).
func TestOpenSingleFd(t *testing.T) {
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
	mapped, err := Open(v4)
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
	heap, err := Open(nt)
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
	if _, err := Open(short); err == nil {
		t.Fatal("1-byte non-N-Triples input must error")
	}
}

// A pipe (process substitution, /dev/stdin) can be neither rewound nor
// mapped: Open reads it as a stream, N-Triples and v4 images alike.
func TestOpenPipe(t *testing.T) {
	if _, err := os.Stat("/dev/fd"); err != nil {
		t.Skip("no /dev/fd on this system")
	}
	nt := []byte("<http://x/a> <http://x/p> <http://x/b> .\n<http://x/b> <http://x/p> \"c\" .\n")
	st, err := loadAnyReader(bytes.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"N-Triples": nt, "v4 image": v4Image(t, st)} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			w.Write(data)
			w.Close()
		}()
		got, err := Open(fmt.Sprintf("/dev/fd/%d", r.Fd()))
		r.Close()
		if err != nil {
			t.Fatalf("%s through a pipe: %v", name, err)
		}
		if got.Backend() != "heap" {
			t.Fatalf("%s through a pipe: backend %q, want heap", name, got.Backend())
		}
		equalStoreSurface(t, st, got)
	}
}
