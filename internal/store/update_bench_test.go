package store_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bsbm"
	"repro/internal/rdf"
	"repro/internal/store"
)

// The update-path fixture: the 10 000-product BSBM store the repository
// benchmark serves, and a pending delta of ≈ 48 k changes built from
// batches shaped like the benchmark's update stream (150 new offers of
// three triples each) — just under the default compaction threshold of
// an eighth of the base.
const (
	fixtureOffers  = 150
	fixtureBatches = 107
)

var updateFixture struct {
	once    sync.Once
	base    *store.Store
	pending *store.Delta // fixtureBatches batches applied to base
	err     error
}

// offerBatch is batch b of the update stream: new offers for one new
// product, each with a price and an existing vendor.
func offerBatch(b int) []store.DeltaOp {
	rng := rand.New(rand.NewSource(int64(b)))
	product := rdf.NewIRI(fmt.Sprintf("%sBenchProduct%d", bsbm.NS, b))
	ts := make([]rdf.Triple, 0, 3*fixtureOffers)
	for j := 0; j < fixtureOffers; j++ {
		offer := rdf.NewIRI(fmt.Sprintf("%sBenchOffer%d_%d", bsbm.NS, b, j))
		ts = append(ts,
			rdf.NewTriple(offer, bsbm.PredOfferProduct, product),
			rdf.NewTriple(offer, bsbm.PredOfferPrice, rdf.NewInteger(int64(10+rng.Intn(9000)))),
			rdf.NewTriple(offer, bsbm.PredOfferVendor, rdf.NewIRI(fmt.Sprintf("%sVendor%d", bsbm.NS, rng.Intn(100)))))
	}
	return []store.DeltaOp{{Insert: true, Triples: ts}}
}

func loadUpdateFixture(tb testing.TB) (*store.Store, *store.Delta) {
	tb.Helper()
	f := &updateFixture
	f.once.Do(func() {
		cfg := bsbm.DefaultConfig()
		cfg.Products = 10000
		if f.base, _, f.err = bsbm.BuildStore(cfg); f.err != nil {
			return
		}
		d := f.base.NewDelta()
		for b := 0; b < fixtureBatches && f.err == nil; b++ {
			d, f.err = d.ApplyOps(offerBatch(b))
		}
		f.pending = d
	})
	if f.err != nil {
		tb.Fatal(f.err)
	}
	return f.base, f.pending
}

// BenchmarkDeltaApply times one 450-triple update against the ≈ 48 k
// pending changes.
func BenchmarkDeltaApply(b *testing.B) {
	_, d := loadUpdateFixture(b)
	ops := offerBatch(fixtureBatches)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := d.ApplyOps(ops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlayProbe times one subject-bound MatchBuf probe — the
// index-join inner side — over the overlay of the ≈ 48 k pending changes,
// with the probed subjects drawn in random order from the base (whose
// subjects the delta leaves untouched) and, in the second case, every
// other one from the pending offers. The benchmark stream's reads never
// reach a pending subject, so the first case is the one it serves.
func BenchmarkOverlayProbe(b *testing.B) {
	base, d := loadUpdateFixture(b)
	ov := d.Overlay()
	dd := ov.Dict()
	all, _ := base.Match(store.Pattern{})
	product, _ := dd.Lookup(bsbm.PredOfferProduct)
	rng := rand.New(rand.NewSource(1))
	for _, pending := range []int{0, 50} {
		probes := make([]store.Pattern, 1<<16)
		for i := range probes {
			tr := all[rng.Intn(len(all))]
			probes[i] = store.Pattern{S: tr.S, P: tr.P}
			if i%2 == 1 && pending > 0 {
				offer := rdf.NewIRI(fmt.Sprintf("%sBenchOffer%d_%d", bsbm.NS, rng.Intn(fixtureBatches), rng.Intn(fixtureOffers)))
				s, ok := dd.Lookup(offer)
				if !ok {
					b.Fatalf("pending offer %v is not in the dictionary", offer)
				}
				probes[i] = store.Pattern{S: s, P: product}
			}
		}
		b.Run(fmt.Sprintf("pending=%d%%", pending), func(b *testing.B) {
			var scratch, m []store.IDTriple
			ov.Count(probes[0]) // builds the subject directory
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, scratch = ov.MatchBuf(probes[i%len(probes)], scratch)
				probeSink += len(m)
			}
		})
	}
}

var probeSink int

// BenchmarkOverlayPublish times publishing the pending delta as an
// overlay snapshot.
func BenchmarkOverlayPublish(b *testing.B) {
	_, d := loadUpdateFixture(b)
	b.ReportAllocs()
	for b.Loop() {
		d.Overlay()
	}
}

// BenchmarkCommit times compacting the pending delta into a fresh fully
// indexed store.
func BenchmarkCommit(b *testing.B) {
	_, d := loadUpdateFixture(b)
	b.ReportAllocs()
	for b.Loop() {
		d.Commit()
	}
}

// TestOverlayAllocs is a hard gate on the publish cost: Overlay of a
// one-batch delta and of the ≈ 48 k-change delta allocates the same
// handful of objects, so a rescan or a statistics copy coming back fails
// it.
func TestOverlayAllocs(t *testing.T) {
	base, pending := loadUpdateFixture(t)
	small, err := base.NewDelta().ApplyOps(offerBatch(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*store.Delta{small, pending} {
		if allocs := testing.AllocsPerRun(20, func() { d.Overlay() }); allocs > 2 {
			t.Errorf("Overlay of %d pending changes: %.0f allocs, want <= 2", d.Size(), allocs)
		}
	}
}
