package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzSnapshotSeeds returns v4 images — a built store, an overlay folded
// by WriteSnapshot and an empty store — plus corruptions of them, as the
// fuzz seed baseline. The checked-in corpus under testdata/fuzz holds
// files in the pre-v4 formats, which must be rejected.
func fuzzSnapshotSeeds(f *testing.F) [][]byte {
	f.Helper()
	built := randomBuilder(17, 60).Build()
	ov := applyRandomDelta(f, rand.New(rand.NewSource(17)), built, 2).Overlay()
	if ov.Delta() == nil {
		f.Fatal("seed overlay has no pending delta")
	}
	full := v4Image(f, built)
	seeds := [][]byte{full, v4Image(f, ov), v4Image(f, NewBuilder().Build())}
	for _, seed := range seeds {
		if _, err := ReadSnapshot(bytes.NewReader(seed)); err != nil {
			f.Fatal(err)
		}
	}
	// Corruptions: truncation, flipped magic, flipped interior bytes.
	seeds = append(seeds, full[:len(full)/2])
	seeds = append(seeds, corruptV4(full, func(b []byte) { b[7] = '9' }))
	seeds = append(seeds, corruptV4(full, func(b []byte) { b[len(b)/2] ^= 0xff }))
	seeds = append(seeds, full[:v4PageSize], []byte("RDFSNAP"), nil)
	return seeds
}

// corpusEntry decodes one single-[]byte entry of the FuzzReadSnapshot
// corpus under testdata/fuzz.
func corpusEntry(f testing.TB, name string) []byte {
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

// FuzzReadSnapshot checks the revalidating v4 heap load on arbitrary
// bytes: it must never panic and never build an inconsistent store —
// every store it does accept must survive a v4 write/read round trip with
// its triple stream and length intact.
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
	})
}
