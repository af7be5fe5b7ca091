package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

func buildIterStore(t *testing.T, n int) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	for i := 0; i < n; i++ {
		tr := rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://x/s%d", rng.Intn(40))),
			rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(5))),
			rdf.NewIRI(fmt.Sprintf("http://x/o%d", rng.Intn(40))),
		)
		if err := b.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestScanMatchesMatch(t *testing.T) {
	st := buildIterStore(t, 500)
	pID, _ := st.Dict().Lookup(rdf.NewIRI("http://x/p1"))
	for _, pat := range []Pattern{{}, {P: pID}, {S: 1}, {P: 999999}} {
		want, _ := st.Match(pat)
		for _, batchSize := range []int{0, 1, 3, 64, 100000} {
			sc := st.Scan(pat)
			var got []IDTriple
			for {
				batch := sc.Next(batchSize)
				if batch == nil {
					break
				}
				if batchSize > 0 && len(batch) > batchSize {
					t.Fatalf("batch of %d exceeds max %d", len(batch), batchSize)
				}
				got = append(got, batch...)
			}
			if len(got) != len(want) {
				t.Fatalf("pat %v batch %d: got %d triples, want %d", pat, batchSize, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pat %v batch %d: triple %d = %v, want %v (order must match Match)", pat, batchSize, i, got[i], want[i])
				}
			}
			if sc.Remaining() != 0 {
				t.Fatalf("remaining = %d after exhaustion", sc.Remaining())
			}
		}
	}
}

func TestScanEmpty(t *testing.T) {
	st := buildIterStore(t, 10)
	sc := st.Scan(Pattern{S: 123456})
	if sc.Remaining() != 0 {
		t.Fatalf("remaining = %d", sc.Remaining())
	}
	if batch := sc.Next(8); batch != nil {
		t.Fatalf("batch = %v, want nil", batch)
	}
}

func TestScanZeroCopy(t *testing.T) {
	st := buildIterStore(t, 200)
	want, _ := st.Match(Pattern{})
	sc := st.Scan(Pattern{})
	first := sc.Next(10)
	if len(first) != 10 {
		t.Fatalf("first batch = %d", len(first))
	}
	// Zero-copy: the batch must alias the index backing array.
	if &first[0] != &want[0] {
		t.Error("batch does not alias the index")
	}
	// The batch's capacity is clipped so appends cannot clobber the index.
	if cap(first) != 10 {
		t.Errorf("cap = %d, want 10 (three-index slice)", cap(first))
	}
}

// overlayWorld builds a base store plus an overlay with a delta that
// deletes some base triples and inserts fresh ones, so every read path
// (plain, overlay-with-changes) is exercised against the same logical
// triple set.
func overlayWorld(t testing.TB, seed int64, n int) (base, overlay *Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for i := 0; i < n; i++ {
		tr := rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://s/%d", rng.Intn(n/4+1))),
			P: rdf.NewIRI(fmt.Sprintf("http://p/%d", rng.Intn(5))),
			O: rdf.NewIRI(fmt.Sprintf("http://o/%d", rng.Intn(n/3+1))),
		}
		if err := b.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	base = b.Build()
	all, _ := base.Match(Pattern{})
	d := base.NewDelta()
	var del, ins []rdf.Triple
	dd := base.Dict()
	for i := 0; i < len(all); i += 7 {
		tr := all[i]
		del = append(del, rdf.Triple{S: dd.Decode(tr.S), P: dd.Decode(tr.P), O: dd.Decode(tr.O)})
	}
	for i := 0; i < n/5; i++ {
		ins = append(ins, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://s/new%d", rng.Intn(20))),
			P: rdf.NewIRI(fmt.Sprintf("http://p/%d", rng.Intn(5))),
			O: rdf.NewIRI(fmt.Sprintf("http://o/new%d", rng.Intn(40))),
		})
	}
	d, err := d.Apply(ins, del)
	if err != nil {
		t.Fatal(err)
	}
	return base, d.Overlay()
}

// TestScanOverlayNextAllocs is the allocation regression test for the
// overlay merge path: after the first batch sizes the internal buffer,
// Next must not allocate.
func TestScanOverlayNextAllocs(t *testing.T) {
	_, overlay := overlayWorld(t, 4, 4000)
	if overlay.Delta() == nil || overlay.Delta().Empty() {
		t.Fatal("overlay has no pending changes")
	}
	sc := overlay.Scan(Pattern{})
	if sc.Next(32) == nil {
		t.Fatal("empty scan")
	}
	runs := 50
	if sc.Remaining() < runs*32 {
		t.Fatalf("scan too small for %d warm runs: %d remaining", runs, sc.Remaining())
	}
	avg := testing.AllocsPerRun(runs, func() {
		if sc.Next(32) == nil {
			t.Fatal("cursor exhausted mid-measurement")
		}
	})
	if avg != 0 {
		t.Fatalf("overlay Scan.Next allocates %.1f times per batch in steady state, want 0", avg)
	}
}

// TestMatchBufAllocs is the allocation regression test for the probe path:
// repeated MatchBuf calls over an overlay with pending changes must reuse
// the caller's scratch once it has grown to the largest run.
func TestMatchBufAllocs(t *testing.T) {
	_, overlay := overlayWorld(t, 5, 2000)
	all, _ := overlay.Match(Pattern{})
	subs := make([]dict.ID, 0, 64)
	seen := map[dict.ID]bool{}
	for _, tr := range all {
		if !seen[tr.S] {
			seen[tr.S] = true
			subs = append(subs, tr.S)
		}
	}
	var scratch []IDTriple
	warm := func() {
		for _, s := range subs {
			var m []IDTriple
			m, scratch = overlay.MatchBuf(Pattern{S: s}, scratch)
			_ = m
		}
	}
	warm()
	avg := testing.AllocsPerRun(20, warm)
	if avg != 0 {
		t.Fatalf("MatchBuf allocates %.1f times per probe sweep in steady state, want 0", avg)
	}
	// And it must agree with Match.
	for _, s := range subs {
		var m []IDTriple
		m, scratch = overlay.MatchBuf(Pattern{S: s}, scratch)
		want, _ := overlay.Match(Pattern{S: s})
		if len(m) != len(want) {
			t.Fatalf("MatchBuf(%d): %d matches, Match: %d", s, len(m), len(want))
		}
		for i := range m {
			if m[i] != want[i] {
				t.Fatalf("MatchBuf(%d): triple %d = %v, want %v", s, i, m[i], want[i])
			}
		}
	}
}
