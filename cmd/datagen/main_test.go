package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

func TestRunWritesParseableNTriples(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.nt")
	if err := run("bsbm", "test", 1, out, "nt"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	triples, err := rdf.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) < 10000 {
		t.Fatalf("only %d triples generated", len(triples))
	}
}

func TestRunSNB(t *testing.T) {
	out := filepath.Join(t.TempDir(), "snb.nt")
	if err := run("snb", "test", 2, out, "nt"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	triples, err := rdf.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) < 10000 {
		t.Fatalf("only %d triples generated", len(triples))
	}
}

func TestRunErrors(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "x.nt")
	if err := run("nope", "test", 1, tmp, "nt"); err == nil {
		t.Error("unknown dataset should fail")
	}
	if err := run("bsbm", "huge", 1, tmp, "nt"); err == nil {
		t.Error("unknown scale should fail")
	}
	if err := run("snb", "huge", 1, tmp, "nt"); err == nil {
		t.Error("unknown snb scale should fail")
	}
	if err := run("bsbm", "test", 1, "/nonexistent-dir/x.nt", "nt"); err == nil {
		t.Error("unwritable path should fail")
	}
}

func TestRunSnapshotFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "data.snap")
	if err := run("bsbm", "test", 1, out, "snapshot"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := store.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() < 10000 {
		t.Fatalf("snapshot has only %d triples", st.Len())
	}
}

func TestRunBadFormat(t *testing.T) {
	if err := run("bsbm", "test", 1, filepath.Join(t.TempDir(), "x"), "yaml"); err == nil {
		t.Fatal("bad format should fail")
	}
}

// -format snapshot writes v4: the file maps in (what cmd/served does by
// default) and heap-loads into the same store as the N-Triples output.
func TestRunSnapshotVersions(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "data.snap")
	nt := filepath.Join(dir, "data.nt")
	if err := run("bsbm", "test", 1, snap, "snapshot"); err != nil {
		t.Fatal(err)
	}
	if err := run("bsbm", "test", 1, nt, "nt"); err != nil {
		t.Fatal(err)
	}
	mapped, err := store.OpenMapped(snap)
	if err != nil {
		t.Fatalf("snapshot is not a mappable v4 file: %v", err)
	}
	defer mapped.Mapping().Release()
	ref, err := store.LoadAny(nt)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Backend() != "mapped" || mapped.Len() != ref.Len() || mapped.Dict().Len() != ref.Dict().Len() {
		t.Fatalf("v4 snapshot (%s) disagrees with N-Triples: %d/%d triples, %d/%d terms",
			mapped.Backend(), mapped.Len(), ref.Len(), mapped.Dict().Len(), ref.Dict().Len())
	}
}
