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
	if err := run("bsbm", "test", 1, out, "nt", 0); err != nil {
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
	if err := run("snb", "test", 2, out, "nt", 0); err != nil {
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
	if err := run("nope", "test", 1, tmp, "nt", 0); err == nil {
		t.Error("unknown dataset should fail")
	}
	if err := run("bsbm", "huge", 1, tmp, "nt", 0); err == nil {
		t.Error("unknown scale should fail")
	}
	if err := run("snb", "huge", 1, tmp, "nt", 0); err == nil {
		t.Error("unknown snb scale should fail")
	}
	if err := run("bsbm", "test", 1, "/nonexistent-dir/x.nt", "nt", 0); err == nil {
		t.Error("unwritable path should fail")
	}
}

func TestRunSnapshotFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "data.snap")
	if err := run("bsbm", "test", 1, out, "snapshot", 0); err != nil {
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
	if err := run("bsbm", "test", 1, filepath.Join(t.TempDir(), "x"), "yaml", 0); err == nil {
		t.Fatal("bad format should fail")
	}
}

// -shards writes a sharded snapshot directory whose federation holds the
// same triples as the plain snapshot, and rejects incompatible flags.
func TestRunShardedSnapshot(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.snap")
	if err := run("bsbm", "test", 1, plain, "snapshot", 0); err != nil {
		t.Fatal(err)
	}
	sharded := filepath.Join(dir, "sharded")
	if err := run("bsbm", "test", 1, sharded, "snapshot", 4); err != nil {
		t.Fatal(err)
	}
	if !store.IsShardedSnapshot(sharded) {
		t.Fatal("output not recognized as a sharded snapshot directory")
	}
	sh, err := store.LoadSharded(sharded, true)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(plain)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref, err := store.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if sh.NumShards() != 4 || sh.Len() != ref.Len() {
		t.Fatalf("sharded load: %d shards, %d triples (want 4, %d)", sh.NumShards(), sh.Len(), ref.Len())
	}
	if err := run("bsbm", "test", 1, filepath.Join(dir, "x.nt"), "nt", 4); err == nil {
		t.Fatal("-shards with -format nt should fail")
	}
	if err := run("bsbm", "test", 1, "", "snapshot", 4); err == nil {
		t.Fatal("-shards without -out should fail")
	}
}

// -format snapshot writes v4: the file maps in (what cmd/served does by
// default) and heap-loads into the same store as the N-Triples output.
func TestRunSnapshotVersions(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "data.snap")
	nt := filepath.Join(dir, "data.nt")
	if err := run("bsbm", "test", 1, snap, "snapshot", 0); err != nil {
		t.Fatal(err)
	}
	if err := run("bsbm", "test", 1, nt, "nt", 0); err != nil {
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
