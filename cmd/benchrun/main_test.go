package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bsbm"
)

func TestUniformTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "bsbm", "test", "q4", "uniform", "", 3, 10, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Group 1", "Group 3", "q10", "Median", "q90", "Average", "max relative deviation"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCuratedTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "bsbm", "test", "q4", "curated", "", 2, 10, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Q4a") || !strings.Contains(out, "#plans") {
		t.Fatalf("curated output malformed:\n%s", out)
	}
}

// TestGreedyFlag runs the greedy optimizer over a template with a FILTER
// (snb q3).
func TestGreedyFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "snb", "test", "q3", "uniform", "", 2, 5, 1, 1, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Group 1") {
		t.Fatalf("output wrong:\n%s", buf.String())
	}
}

func TestBadArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "bsbm", "test", "q4", "nope", "", 2, 5, 1, 1, false); err == nil {
		t.Error("bad mode should fail")
	}
	if err := run(&buf, "marbles", "test", "q4", "uniform", "", 2, 5, 1, 1, false); err == nil {
		t.Error("bad dataset should fail")
	}
	if err := run(&buf, "bsbm", "test", "q4", "uniform", "", 1, 5, 1, 1, false); err == nil {
		t.Error("single group should fail")
	}
}

// A workload run over a snapshot-loaded store must print byte-identical
// tables to the same run over an in-process generated store.
func TestSnapshotLoadedStoreMatchesGenerated(t *testing.T) {
	cfg := bsbm.TestConfig()
	cfg.Seed = 1
	st, _, err := bsbm.BuildStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "bsbm.snap")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var generated, loaded bytes.Buffer
	if err := run(&generated, "bsbm", "test", "q4", "uniform", "", 2, 8, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := run(&loaded, "bsbm", "test", "q4", "uniform", snap, 2, 8, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if generated.String() != loaded.String() {
		t.Fatalf("snapshot-loaded output differs:\n--- generated ---\n%s\n--- loaded ---\n%s",
			generated.String(), loaded.String())
	}
	if err := run(&loaded, "bsbm", "test", "q4", "uniform", "/nonexistent.snap", 2, 8, 1, 1, false); err == nil {
		t.Fatal("missing snapshot file should fail")
	}
}

// TestParallelismFlagOutputIdentical: the aggregate tables benchrun prints
// are derived from measured work units, which are bit-identical at any
// -parallelism; the whole report must therefore match the serial run's.
func TestParallelismFlagOutputIdentical(t *testing.T) {
	var serial, parallel bytes.Buffer
	if err := run(&serial, "bsbm", "test", "q4", "uniform", "", 2, 8, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := run(&parallel, "bsbm", "test", "q4", "uniform", "", 2, 8, 1, 8, false); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("-parallelism 8 changed the report:\nserial:\n%s\nparallel:\n%s", serial.String(), parallel.String())
	}
}
