package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzSnapshotSeeds returns the valid v1/v2/v3 and overlay-v3 entries of
// the checked-in FuzzReadSnapshot corpus (nothing writes those formats
// any more), plus corrupted variants, as the fuzz seed baseline.
func fuzzSnapshotSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, name := range []string{"seed-v1", "seed-v2", "seed-v3", "seed-v3-overlay"} {
		seed := corpusEntry(f, name)
		if _, err := ReadSnapshot(bytes.NewReader(seed)); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, seed)
	}
	// Corruptions: truncation, flipped magic, flipped interior bytes.
	full := seeds[len(seeds)-1]
	seeds = append(seeds, full[:len(full)/2])
	bad := append([]byte(nil), full...)
	bad[7] = '9'
	seeds = append(seeds, bad)
	bad2 := append([]byte(nil), full...)
	bad2[len(bad2)/2] ^= 0xff
	seeds = append(seeds, bad2, []byte("RDFSNAP"), nil)
	return seeds
}

// corpusEntry decodes one single-[]byte entry of the FuzzReadSnapshot
// corpus under testdata/fuzz.
func corpusEntry(f *testing.F, name string) []byte {
	f.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadSnapshot", name))
	if err != nil {
		f.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	if !ok {
		f.Fatalf("%s: not a []byte corpus entry", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(body), ")"))
	if err != nil {
		f.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// FuzzReadSnapshot checks the snapshot readers (every format version) on
// arbitrary bytes: they must never panic and never build an inconsistent
// store — every store they do accept must survive a v4 write/read round
// trip with its triple stream and length intact and its pending delta
// folded in.
func FuzzReadSnapshot(f *testing.F) {
	for _, s := range fuzzSnapshotSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return // malformed input is fine; panics are not
		}
		if st.Len() > 1<<20 {
			return // don't pay to re-serialize absurd accepted inputs
		}
		matches, _ := st.Match(Pattern{})
		if len(matches) != st.Len() {
			t.Fatalf("accepted store is inconsistent: Len %d but %d matches", st.Len(), len(matches))
		}
		var buf bytes.Buffer
		if err := st.WriteSnapshot(&buf); err != nil {
			t.Fatalf("accepted store failed to serialize: %v", err)
		}
		again, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed to re-parse: %v", err)
		}
		if again.Len() != st.Len() {
			t.Fatalf("round trip changed Len: %d vs %d", again.Len(), st.Len())
		}
		am, _ := again.Match(Pattern{})
		if !equalTriples(am, matches) {
			t.Fatal("round trip changed the triple stream")
		}
		if again.Delta() != nil {
			t.Fatal("a v4 round trip must fold the pending delta in")
		}
	})
}
