package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestUniformMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "bsbm", "test", "q4", "uniform", 25, 1.0, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 25 {
		t.Fatalf("got %d lines, want 25", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "Q4\t") || !strings.Contains(l, "ProductType=") {
			t.Fatalf("malformed line %q", l)
		}
	}
}

func TestCuratedMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "bsbm", "test", "q4", "curated", 5, 1.0, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Q4a\t") || !strings.Contains(out, "Q4b\t") {
		t.Fatalf("curated output missing class labels:\n%s", out)
	}
}

func TestCuratedSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "snb", "test", "q2", "curated", 5, 1.0, 1, 1, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "classes") {
		t.Fatalf("summary missing:\n%s", buf.String())
	}
}

func TestSNBQueries(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "snb", "test", "q1", "uniform", 3, 1.0, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, "snb", "test", "q3", "uniform", 3, 1.0, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, "bsbm", "test", "q1", "uniform", 3, 1.0, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, "bsbm", "test", "q2", "uniform", 3, 1.0, 1, 1, false); err != nil {
		t.Fatal(err)
	}
}

// TestEveryTemplate: paramgen resolves every template benchrun runs,
// BSBM q3, q5 and q6 and SNB q4 included.
func TestEveryTemplate(t *testing.T) {
	for _, c := range []struct{ dataset, query, label string }{
		{"bsbm", "q3", "Q3\t"}, {"bsbm", "q5", "Q5\t"}, {"bsbm", "q6", "Q6\t"}, {"snb", "q4", "Q4\t"},
	} {
		var buf bytes.Buffer
		if err := run(&buf, c.dataset, "test", c.query, "uniform", 3, 1.0, 1, 1, false); err != nil {
			t.Fatalf("%s %s: %v", c.dataset, c.query, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) != 3 || !strings.HasPrefix(lines[0], c.label) || !strings.Contains(lines[0], "=") {
			t.Fatalf("%s %s: output wrong:\n%s", c.dataset, c.query, buf.String())
		}
	}
}

func TestErrors(t *testing.T) {
	var buf bytes.Buffer
	cases := []struct {
		dataset, query, mode string
	}{
		{"nope", "q4", "uniform"},
		{"bsbm", "q9", "uniform"},
		{"snb", "q9", "uniform"},
		{"bsbm", "q4", "sideways"},
	}
	for _, c := range cases {
		if err := run(&buf, c.dataset, "test", c.query, c.mode, 3, 1.0, 1, 1, false); err == nil {
			t.Errorf("%+v: expected error", c)
		}
	}
}
