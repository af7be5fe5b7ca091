package store_test

import (
	"bytes"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// TestRenderTableBSBM: on the BSBM test store and on its mapped twin, every
// id's JSON render out of the dictionary's render table is exactly
// Term.Append's, and so is every id encoded after the table was built.
func TestRenderTableBSBM(t *testing.T) {
	heap, _, err := bsbm.BuildStore(bsbm.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := heap.WriteSnapshot(&img); err != nil {
		t.Fatal(err)
	}
	mapped, err := store.OpenMappedBytes(img.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*store.Store{heap, mapped} {
		t.Run(st.Backend(), func(t *testing.T) {
			d := st.Dict()
			check := func() {
				t.Helper()
				var got, want []byte
				for id := dict.ID(1); int(id) <= d.Len(); id++ {
					var ok bool
					if got, ok = d.AppendTerm(got[:0], id, rdf.JSON); !ok {
						t.Fatalf("AppendTerm(%d) failed", id)
					}
					if want = d.Decode(id).Append(want[:0], rdf.JSON); !bytes.Equal(got, want) {
						t.Fatalf("AppendTerm(%d) = %q, want %q", id, got, want)
					}
				}
			}
			check()
			if d.RenderTableBytes() == 0 {
				t.Fatal("no render table after JSON renders")
			}
			d.Encode(rdf.NewLangLiteral("minted \"after\" the table\n", "en"))
			d.Encode(rdf.NewIRI(bsbm.NS + "Minted<After>"))
			check()
		})
	}
}
